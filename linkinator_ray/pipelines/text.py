"""Text-analysis operators over the ``documents`` corpus table.

Large-scale training-data pipeline stages (BASELINE round brief): token
counting, quality scoring, language ID, document fingerprinting. All are
``map_batches`` stages — stateless vectorized kernels or actor-pool
classes whose setup (compiled regexes, stopword profiles) runs once per
actor.

The testdata ``documents`` table here is flat text
``(doc_id:int64, text, lang, source, n_chars)``; these operators work on
any table with a text column.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from linkinator_ray.pipelines.hashagg import \
    auto_concurrency as _autoconc

_WS = re.compile(r"\s+")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "zu", "mit", "von", "nicht"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es", "no", "por"},
    "fr": {"le", "la", "de", "et", "un", "est", "en", "que", "pour", "dans"},
    "zh": {"的", "是", "在", "了", "和", "有", "我", "不", "这", "人"},
}


def read_docs(sf_dir: str, columns: list[str] | None = None):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# ---------------------------------------------------------------------------
# token / quality stats — stateless vectorized kernel
# ---------------------------------------------------------------------------

def _int64(arr) -> np.ndarray:
    return np.asarray(arr.to_numpy(zero_copy_only=False), dtype=np.int64)


def _text_col(batch: pa.Table):
    col = batch.column("text")
    return col.fill_null("") if col.null_count else col


def _normalize_text_arr(text) -> pa.Array:
    """The canonical normalization shared by text_normalize AND
    prepare_corpus (single source of truth — prepare_corpus' DuckDB
    oracle chains text_normalize's CTE verbatim, so the two kernels
    must never drift): NFC + utf8 lowercase + whitespace collapse +
    trim. NFC is the one per-row Python loop (Arrow has no Unicode
    normalization kernel); everything after is vectorized."""
    import unicodedata

    import pyarrow.compute as pc
    nfc = pa.array([unicodedata.normalize("NFC", t)
                    for t in text.to_pylist()], pa.string())
    return pc.utf8_trim_whitespace(pc.replace_substring_regex(
        pc.utf8_lower(nfc), r"\s+", " "))


def _stats_kernel(batch: pa.Table) -> pa.Table:
    """Zero-copy Arrow stats kernel: pyarrow.compute regex counters on
    the string buffers, no pandas block conversion (VERDICT r2 item 2;
    same pattern as graph.py's edge kernel)."""
    import pyarrow.compute as pc
    text = _text_col(batch)
    trimmed = pc.utf8_trim_whitespace(text)
    # len(ws-split(trim(text))) == 1 + count of \s+ runs in the trimmed
    # text (empty text → 1, matching pandas str.split and the oracle)
    n_tokens = _int64(pc.count_substring_regex(trimmed, r"\s+")) + 1
    n_chars = _int64(pc.utf8_length(text))
    alpha = _int64(pc.count_substring_regex(text, "[A-Za-z]"))
    punct = _int64(pc.count_substring_regex(text, "[.,;:!?]"))
    # ratios as exact parts-per-million integers so the DuckDB oracle
    # hashes identically (float rounding is not portable)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": pa.array(n_tokens),
        "n_chars": pa.array(n_chars),
        "alpha_ppm": pa.array((alpha * 1_000_000)
                              // np.maximum(n_chars, 1)),
        "punct_ppm": pa.array((punct * 1_000_000)
                              // np.maximum(n_tokens, 1)),
    })


def doc_stats(sf_dir: str):
    """Per-doc token/char counts + ratios (quality-score features)."""
    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _stats_kernel, batch_format="pyarrow", batch_size=8192)




def _fanout(ds):
    """Repartition to ~CPU count before an all-to-all or an expensive
    map stage. Single maintained implementation lives in dedup.py (it
    also skips the exchange when the read is already parallel — the
    real-cluster case); this alias keeps text.py call sites on it."""
    from linkinator_ray.pipelines.dedup import _fanout as _dedup_fanout
    return _dedup_fanout(ds)

def token_count_by_lang(sf_dir: str):
    """Σ tokens per language — partial aggregation inside map_batches,
    tiny groupby after (the pre-aggregate pattern; ray_guide
    'Aggregation at scale')."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        toks = pa.array(
            _int64(pc.count_substring_regex(trimmed, r"\s+")) + 1)
        t = pa.table({"lang": batch.column("lang"), "t": toks})
        agg = t.group_by("lang", use_threads=False).aggregate(
            [("t", "sum"), ([], "count_all")])
        return pa.table({"lang": agg.column("lang"),
                         "tokens": agg.column("t_sum"),
                         "docs": agg.column("count_all")})

    partials = read_docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)
    out = _fanout(partials).groupby("lang").aggregate(
        Sum("tokens", alias_name="total_tokens"),
        Sum("docs", alias_name="n_docs"))
    return out  # unordered; comparators sort


# ---------------------------------------------------------------------------
# language ID — actor-pool stage (profiles built once per actor)
# ---------------------------------------------------------------------------

class LangId:
    """Stopword-profile language classifier. Stateful setup in
    ``__init__`` (once per actor). Deterministic and fully
    SQL-expressible (exact DuckDB oracle in __ray_entry__): ASCII
    tokenization (RE2-parity ``[0-9a-z_]+`` over the lowered text),
    integer parts-per-million confidence, first-wins tie-break in
    profile order (en, de, es, fr, zh)."""

    LANGS = ("en", "de", "es", "fr", "zh")  # profile order = tie order

    def __init__(self):
        self.profiles = {lang: frozenset(ws) for lang, ws in STOPWORDS.items()}
        self.word_sets = {lang: pa.array(sorted(ws))
                          for lang, ws in STOPWORDS.items() if lang != "zh"}
        self.zh_chars = sorted(STOPWORDS["zh"])
        self.token_re = re.compile(r"[0-9a-z_]+")

    def score_scalar(self, text: str) -> tuple[str, int]:
        """Single-doc reference path (the vectorized __call__ is
        differential-tested against it)."""
        words = self.token_re.findall(text.lower())[:200]
        best, best_score = "en", 0
        for lang, profile in self.profiles.items():
            if lang == "zh":
                score = sum(ch in profile for ch in text[:400])
            else:
                score = sum(w in profile for w in words)
            if score > best_score:
                best, best_score = lang, score
        return best, (1_000_000 * best_score) // max(1, len(words))

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized: one RE2 split on the lowered text, per-language
        ``pc.is_in`` probes over the flattened token stream with
        segmented sums, CJK head hits via 10 ``pc.count_substring``
        kernels, and a row-wise argmax whose first-max-wins matches the
        scalar strict-greater loop (profile order, 'en' at score 0)."""
        import pyarrow.compute as pc
        text = _text_col(batch)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        d = len(text)
        lst = pc.split_pattern_regex(pc.utf8_lower(text), "[^0-9a-z_]+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = pc.list_flatten(lst)
        parent = _int64(pc.list_parent_indices(lst))
        # split (unlike findall) yields boundary empties — drop them,
        # then cap each doc at its first 200 tokens
        nonempty = _int64(pc.not_equal(pc.utf8_length(flat), 0)
                          .cast(pa.int8())).astype(bool)
        pos = np.zeros(len(parent), dtype=np.int64)
        if len(parent):
            # rank of each kept token within its doc: cumulative count
            # of nonempty tokens minus the count before the doc starts
            cum = np.cumsum(nonempty)
            lens = _int64(pc.list_value_length(lst))
            starts = np.repeat(np.concatenate(([0], np.cumsum(lens[:-1]))),
                               lens)
            before = np.concatenate(([0], cum))[starts]
            pos = cum - before - 1  # -1 → 0-based rank among kept tokens
        keep = nonempty & (pos < 200)
        nw = np.zeros(d, dtype=np.int64)
        np.add.at(nw, parent[keep], 1)  # == min(#tokens, 200)
        scores = np.zeros((d, len(self.LANGS)), dtype=np.int64)
        for j, lang in enumerate(self.LANGS[:-1]):
            hit = _int64(pc.is_in(flat, value_set=self.word_sets[lang])
                         .cast(pa.int8())).astype(bool) & keep
            np.add.at(scores[:, j], parent[hit], 1)
        head = pc.utf8_slice_codeunits(text, 0, 400)
        zh = np.zeros(d, dtype=np.int64)
        for ch in self.zh_chars:
            zh += _int64(pc.count_substring(head, ch))
        scores[:, len(self.LANGS) - 1] = zh
        best_idx = np.argmax(scores, axis=1)  # first max = tie order
        best_score = scores[np.arange(d), best_idx]
        preds = np.asarray(self.LANGS, dtype=object)[best_idx]
        confs = (1_000_000 * best_score) // np.maximum(1, nw)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "predicted_lang": pa.array(preds, pa.string()),
                         "confidence_ppm": pa.array(confs, pa.int64())})


def lang_id(sf_dir: str):
    from linkinator_ray.pipelines.dedup import _fanout
    return _fanout(read_docs(sf_dir, ["doc_id", "text"])).map_batches(
        LangId, batch_format="pyarrow", batch_size=2048, concurrency=_autoconc())


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def _md5_kernel(batch: pa.Table) -> pa.Table:
    # md5 is an inherent per-row digest (hashlib loop); the batch stays
    # Arrow so the only copies are the digest strings themselves
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "fingerprint": pa.array(
            [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in _text_col(batch).to_pylist()], pa.string()),
    })


def fingerprint_md5(sf_dir: str):
    """Exact-dup key: md5 of the raw text (DuckDB-checkable)."""
    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _md5_kernel, batch_format="pyarrow", batch_size=8192)


# Rabin-Karp parameters shared with the DuckDB oracle: md5-derived token
# hashes reduced mod the Mersenne prime 2^61-1 (field arithmetic is
# exactly reproducible in SQL via HUGEINT; uint64 wraparound is not)
ROLLING_P = (1 << 61) - 1
ROLLING_B = 1000003

_P64 = np.uint64(ROLLING_P)


def _redc_inplace(x: np.ndarray) -> np.ndarray:
    """In-place reduce uint64 values (< 2^64) mod 2^61-1: fold the high
    3 bits down (2^61 ≡ 1), one conditional subtract. MUTATES x —
    callers own the buffer (always a fresh temp in the kernels below).
    The hot MinHash signature stage runs this over (perms × shingles)
    matrices; the naive expression form churned ~6 matrix-sized
    temporaries per call and was page-fault/bandwidth bound."""
    hi = x >> np.uint64(61)
    x &= _P64
    x += hi
    np.subtract(x, _P64, out=x, where=x >= _P64)
    return x


def _redc_p(x: np.ndarray) -> np.ndarray:
    """Reduce uint64 values (< 2^64) mod the Mersenne prime 2^61-1
    (non-mutating wrapper around the in-place kernel)."""
    return _redc_inplace(np.array(x, dtype=np.uint64, copy=True))


def _addmod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _redc_inplace(np.add(a, b, dtype=np.uint64))
    # a,b < P < 2^61 → sum < 2^62, no overflow


def _mulmod_p(a: np.ndarray, b) -> np.ndarray:
    """(a*b) mod (2^61-1) without 128-bit ints: 32-bit limb split.
    a·b = (a1b1)·2^64 + (a1b0 + a0b1)·2^32 + a0b0 with 2^64 ≡ 2^3 and
    mid·2^32 folded via mid = mh·2^29 + ml ⇒ mid·2^32 ≡ mh + ml·2^32.
    Every intermediate provably fits uint64 for a,b < 2^61. All
    reductions run in place on fresh product buffers — ~3x less
    allocation traffic than the expression form on matrix inputs."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    mask32 = np.uint64(0xFFFFFFFF)
    a1, a0 = a >> np.uint64(32), a & mask32
    b1, b0 = b >> np.uint64(32), b & mask32
    hh = a1 * b1                                   # fresh full-shape buffer
    hh <<= np.uint64(3)                            # a1,b1 < 2^29 → exact
    _redc_inplace(hh)
    mid = a1 * b0
    mid += a0 * b1                                 # < 2^62
    mh = mid >> np.uint64(29)
    mid &= np.uint64((1 << 29) - 1)                # ml, in place
    mid <<= np.uint64(32)                          # ml·2^32 < 2^61
    ll = a0 * b0                                   # < 2^64 exact in uint64
    _redc_inplace(ll)
    hh += mh                                       # < 2^61 + 2^33
    _redc_inplace(hh)
    hh += mid                                      # each term < P < 2^61
    hh += ll                                       # sum < 3·2^61 < 2^64
    return _redc_inplace(hh)


def rolling_fingerprint(sf_dir: str, window: int = 8):
    """Rabin-Karp rolling-hash document fingerprint: min of rolling
    window hashes over the token stream (winnowing-style; a content-
    defined signature robust to local edits). Token hash = first 8
    bytes of md5 (big-endian) mod 2^61-1; window hash = polynomial in
    base 1000003 over the field — both chosen so the EXACT same numbers
    come out of the DuckDB oracle (md5 + HUGEINT window sums)."""
    P, B = ROLLING_P, ROLLING_B
    # B^(w-1-j) mod P per window slot, as uint64 for the numpy field ops
    pows = np.array([pow(B, window - 1 - j, P) for j in range(window)],
                    dtype=np.uint64)

    def kernel(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = batch.num_rows
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        p = _int64(pc.list_parent_indices(lst))
        n_tokens = _int64(pc.list_value_length(lst))
        flat = pc.list_flatten(lst)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        # md5 only once per DISTINCT token (dictionary encode is C-speed;
        # the token stream repeats its vocabulary massively)
        d = flat.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        uh = np.array([int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                                      "big") % P for t in uniq],
                      dtype=np.uint64)
        h = uh[np.asarray(d.indices.to_numpy(zero_copy_only=False),
                          dtype=np.int64)] if len(uniq) else \
            np.empty(0, np.uint64)

        # every doc's min token hash (short-doc fingerprint, and a valid
        # init for the window min scatter)
        fp_short = np.full(n, np.iinfo(np.uint64).max, np.uint64)
        np.minimum.at(fp_short, p, h)

        fp = fp_short.copy()
        total = len(h)
        if total >= window:
            # window hash at flat position i: Σ_j h[i+j]·B^(w-1-j) mod P,
            # vectorized over ALL positions; valid where the whole
            # window stays inside one doc (p[i] == p[i+w-1])
            m = total - window + 1
            acc = np.zeros(m, np.uint64)
            for j in range(window):
                acc = _addmod_p(acc, _mulmod_p(h[j:j + m], pows[j]))
            valid = p[:m] == p[window - 1:window - 1 + m]
            best = np.full(n, np.iinfo(np.uint64).max, np.uint64)
            np.minimum.at(best, p[:m][valid], acc[valid])
            long_mask = n_tokens >= window
            fp[long_mask] = best[long_mask]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "rolling_fp": pa.array(fp.astype(np.int64))})

    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=4096)


# GPT2-style pre-tokenizer shape (contractions, letter runs, digit runs,
# punctuation runs, whitespace) — RE2-compatible (no lookarounds), so the
# DuckDB oracle runs the IDENTICAL pattern via regexp_extract_all
BPE_PRETOKEN_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


def token_count_bpe(sf_dir: str):
    """Per-doc token count under a BPE-ish pre-tokenizer regex (the
    training-data 'how many tokens is this corpus' primitive). The
    pattern is RE2-compatible, so the count runs entirely in Arrow's
    C++ regex kernel (count of non-overlapping matches == len(findall))
    — no per-doc Python at all."""

    def kernel(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = _int64(pc.count_substring_regex(_text_col(batch),
                                            BPE_PRETOKEN_RE))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_bpe_tokens": pa.array(n)})

    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=8192)


def quality_filter(sf_dir: str, min_tokens: int = 20, max_tokens: int = 1000,
                   min_alpha_ppm: int = 500_000):
    """Training-data quality gate: keep docs inside token-count bounds
    with enough alphabetic content. Vectorized predicate inside
    map_batches (ds.filter(row_fn) would be per-row Python)."""

    def kernel(batch: pa.Table) -> pa.Table:
        stats = _stats_kernel(batch)
        nt = _int64(stats.column("n_tokens"))
        ap = _int64(stats.column("alpha_ppm"))
        keep = ((nt >= min_tokens) & (nt <= max_tokens)
                & (ap >= min_alpha_ppm))
        return stats.select(["doc_id", "n_tokens", "alpha_ppm"]) \
            .filter(pa.array(keep))

    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=8192)


def top_tokens(sf_dir: str, k: int = 20):
    """Global top-k tokens by document frequency: per-batch partial
    counts (the combiner), hash-partitioned merge, per-partition local
    top-k, tiny final head. Mergeable top-k — the driver only ever sees
    P×k rows, never the vocabulary (deterministic
    (count desc, token asc) order)."""

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native distinct-token doc counts: regex split to a list
        # column, flatten with parent indices, two C-speed group_bys
        # (per-doc distinct, then per-token count) — no Python dict loop
        import pyarrow.compute as pc
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        pairs = pa.table({"p": pc.list_parent_indices(lst),
                          "token": pc.list_flatten(lst)})
        distinct = pairs.group_by(["p", "token"],
                                  use_threads=False).aggregate([])
        agg = distinct.group_by("token", use_threads=False).aggregate(
            [([], "count_all")])
        return pa.table({"token": agg.column("token"),
                         "n": agg.column("count_all")})

    partials = read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)
    from linkinator_ray.pipelines.hashagg import hash_aggregate, topk
    merged = hash_aggregate(partials, "token", {"doc_freq": ("n", "sum")})
    # hash co-location: every token's global count lives in exactly one
    # block, so a per-block top k is a valid partial
    return topk(merged, k, [("doc_freq", "descending"),
                            ("token", "ascending")])


# ---------------------------------------------------------------------------
# repetition stats — Gopher-style repetition quality signals
# ---------------------------------------------------------------------------

def _repetition_kernel(batch: pa.Table) -> pa.Table:
    """Per-doc repetition signals (Rae et al. 2021 'Gopher' §A1.1-style
    repetition filters, adapted to token/bigram units): fraction of
    token occurrences belonging to repeated tokens, most-frequent-token
    fraction, most-frequent-bigram fraction. All C-speed: one regex
    split, two Arrow group_bys, numpy scatter reductions — no Python
    per-row loop. Ratios are exact integer ppm so the DuckDB oracle
    hashes identically."""
    import pyarrow.compute as pc
    n = batch.num_rows
    trimmed = pc.utf8_trim_whitespace(_text_col(batch))
    lst = pc.split_pattern_regex(trimmed, r"\s+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    p = _int64(pc.list_parent_indices(lst))
    toks = pc.list_flatten(lst)
    n_tokens = _int64(pc.list_value_length(lst))

    # per-(doc, token) occurrence counts
    cnt = pa.table({"p": pa.array(p), "tok": toks}).group_by(
        ["p", "tok"], use_threads=False).aggregate([([], "count_all")])
    cp = _int64(cnt.column("p"))
    cc = _int64(cnt.column("count_all"))
    top_tok = np.zeros(n, np.int64)
    np.maximum.at(top_tok, cp, cc)
    dup_tok = np.zeros(n, np.int64)
    np.add.at(dup_tok, cp, np.where(cc > 1, cc, 0))

    # intra-doc bigrams: adjacent token pairs with the same parent
    flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    top_big = np.zeros(n, np.int64)
    if len(flat) > 1:
        m = p[:-1] == p[1:]
        mask = pa.array(m)
        left = flat.slice(0, len(flat) - 1).filter(mask)
        right = flat.slice(1).filter(mask)
        big = pc.binary_join_element_wise(left, right, " ")
        bcnt = pa.table({"p": pa.array(p[:-1][m]),
                         "bg": big}).group_by(
            ["p", "bg"], use_threads=False).aggregate([([], "count_all")])
        np.maximum.at(top_big, _int64(bcnt.column("p")),
                      _int64(bcnt.column("count_all")))

    denom = np.maximum(n_tokens, 1)
    n_bigrams = np.maximum(n_tokens - 1, 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": pa.array(n_tokens),
        "top_token_ppm": pa.array(top_tok * 1_000_000 // denom),
        "dup_token_ppm": pa.array(dup_tok * 1_000_000 // denom),
        "top_bigram_ppm": pa.array(top_big * 1_000_000 // n_bigrams),
    })


def repetition_stats(sf_dir: str):
    """Per-doc repetition fractions for repetition-based quality
    filtering (a doc of 'batch batch batch' is low-quality training
    data however good its token counts look)."""
    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _repetition_kernel, batch_format="pyarrow", batch_size=8192)


# ---------------------------------------------------------------------------
# PII scrub — regex redaction (emails / IPv4 / phone-like runs)
# ---------------------------------------------------------------------------

# Applied IN ORDER to progressively-scrubbed text; RE2 on both engines
# (pyarrow and DuckDB), so counts and replacements hash identically.
# No lookarounds/backrefs (RE2-safe).
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9() -]{6,}[0-9]", "<PHONE>"),
)


def _pii_kernel(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    cur = _text_col(batch)
    out: dict = {"doc_id": batch.column("doc_id")}
    for name, pat, repl in PII_PATTERNS:
        out[f"n_{name}"] = pa.array(_int64(pc.count_substring_regex(cur, pat)))
        cur = pc.replace_substring_regex(cur, pat, repl)
    out["clean_text"] = cur
    return pa.table(out)


def pii_scrub(sf_dir: str):
    """Count + redact PII-shaped spans (emails, IPv4s, phone-number-like
    digit runs) per document — the standard pre-training scrub pass.
    Vectorized RE2 kernels over the Arrow string buffers."""
    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _pii_kernel, batch_format="pyarrow", batch_size=8192)


# ---------------------------------------------------------------------------
# training-mix sampling — deterministic per-source weighted keep
# ---------------------------------------------------------------------------

def sample_by_source(sf_dir: str):
    """Weighted source mixing (the "data mixture" step of a training
    pipeline): keep each doc with a per-source probability, decided by a
    deterministic md5 coin on the doc_id so the sample is reproducible
    and resumable — no RNG state, any worker gets the same answer.

    keep iff u_ppm < p_ppm where
      u_ppm = int(md5(str(doc_id))[:8 hex], 16) % 1e6
      p_ppm = ((source_number % 20) + 1) * 50_000   (5%..100%)

    Output: kept rows (doc_id, source, u_ppm, p_ppm). Pure stateless
    map_batches — no shuffle, no driver state; at 100 TB this is a
    single streaming pass.
    """
    import pyarrow.compute as pc

    def kernel(batch: pa.Table) -> pa.Table:
        doc = _int64(batch.column("doc_id"))
        u = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 1_000_000
             for i in doc), dtype=np.int64, count=len(doc))
        # digit run capped at 18 chars (fits int64 on both sides) and a
        # digit-less / null source maps to 0 — _int64 on a NULLABLE array
        # would round-trip the null through float64 NaN into INT64_MIN
        # and yield a silent formula-violating p_ppm
        extracted = pc.extract_regex(batch.column("source"),
                                     r"(?P<n>[0-9]{1,18})")
        if isinstance(extracted, pa.ChunkedArray):
            extracted = extracted.combine_chunks()
        src_num = _int64(pc.fill_null(
            pc.cast(pc.struct_field(extracted, "n"), pa.int64()), 0))
        p = ((src_num % 20) + 1) * 50_000
        keep = pa.array(u < p)
        return pa.table({
            "doc_id": batch.column("doc_id").filter(keep),
            "source": batch.column("source").filter(keep),
            "u_ppm": pa.array(u[u < p]),
            "p_ppm": pa.array(p[u < p]),
        })

    return read_docs(sf_dir, ["doc_id", "source"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=8192)


def stratified_sample(sf_dir: str, n_per_lang: int = 50):
    """EXACT per-language quota sample (vs sample_by_source's
    per-row coin): for each lang keep the ``n_per_lang`` docs with the
    smallest deterministic md5 coin — reproducible, no RNG state,
    identical from any worker.

    Shape: a mergeable per-group top-N. The per-batch combiner keeps at
    most N smallest (coin, doc_id) rows per lang, so the ONE exchange
    (hash-partitioned by lang) moves ≤ N·langs rows per input batch —
    never the corpus. The per-partition finish re-sorts and ranks. At
    100 TB this is the standard "exact stratified subset" primitive
    (eval-set carving, per-language probes).

    Output (doc_id, lang, rank) with rank 1..N per lang. Oracle:
    row_number() over (partition by lang order by md5-coin, doc_id).
    """

    def coin_of(doc: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "big") for i in doc),
            dtype=np.uint64, count=len(doc))

    def partial(batch: pa.Table) -> pa.Table:
        doc = _int64(batch.column("doc_id"))
        coin = coin_of(doc)
        langs = batch.column("lang")
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        codes = langs.dictionary_encode()
        code = np.asarray(codes.indices.to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        order = np.lexsort((doc, coin, code))
        # within-group rank over the sorted run boundaries
        sorted_code = code[order]
        boundary = np.empty(len(order), dtype=bool)
        if len(order):
            boundary[0] = True
            boundary[1:] = sorted_code[1:] != sorted_code[:-1]
        starts = np.flatnonzero(boundary)
        rank = np.arange(len(order), dtype=np.int64) - \
            np.repeat(starts, np.diff(np.append(starts, len(order))))
        keep = order[rank < n_per_lang]
        return pa.table({
            "doc_id": pa.array(doc[keep]),
            "lang": langs.take(pa.array(keep)),
            "coin": pa.array(coin[keep]),
        })

    from linkinator_ray.pipelines.hashagg import hash_map_groups
    partials = read_docs(sf_dir, ["doc_id", "lang"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["coin", "doc_id"]).head(n_per_lang)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "lang": g["lang"].to_numpy(),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        })

    empty = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                          "lang": pd.array([], dtype="string"),
                          "rank": pd.array([], dtype="int64")})
    return hash_map_groups(partials, "lang", finish, empty=empty)


def top_docs_per_lang(sf_dir: str, k: int = 5):
    """Per-language top-k selection by a DATA column — the "best docs
    per bucket" primitive of quality/curriculum selection (longest docs
    win here; doc_id breaks ties), vs ``stratified_sample``'s random
    quota.

    Same mergeable per-group top-N shape: the per-batch combiner keeps
    at most k rows per lang, so the ONE exchange (hash-partitioned by
    lang) moves ≤ k·langs rows per input batch — never the corpus; the
    per-partition finish re-sorts the ≤ k·P survivors per lang and
    ranks. At 100 TB this streams: no global sort, no driver state.

    Output (lang, rank, doc_id, n_chars) with rank 1..k per lang by
    (n_chars DESC, doc_id ASC) — all-integer, so the window-function
    oracle hashes identically.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def partial(batch: pa.Table) -> pa.Table:
        doc = _int64(batch.column("doc_id"))
        n_chars = _int64(batch.column("n_chars"))
        langs = batch.column("lang")
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        codes = langs.dictionary_encode()
        code = np.asarray(codes.indices.to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        # lexsort: last key is primary — group, then n_chars DESC, then
        # doc_id ASC for the deterministic tie-break
        order = np.lexsort((doc, -n_chars, code))
        sorted_code = code[order]
        boundary = np.empty(len(order), dtype=bool)
        if len(order):
            boundary[0] = True
            boundary[1:] = sorted_code[1:] != sorted_code[:-1]
        starts = np.flatnonzero(boundary)
        rank = np.arange(len(order), dtype=np.int64) - \
            np.repeat(starts, np.diff(np.append(starts, len(order))))
        keep = order[rank < k]
        return pa.table({
            "doc_id": pa.array(doc[keep]),
            "lang": langs.take(pa.array(keep)),
            "n_chars": pa.array(n_chars[keep]),
        })

    from linkinator_ray.pipelines.hashagg import hash_map_groups
    partials = read_docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"],
                          ascending=[False, True]).head(k)
        return pd.DataFrame({
            "lang": g["lang"].to_numpy(),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            "doc_id": g["doc_id"].to_numpy(),
            "n_chars": g["n_chars"].to_numpy(),
        })

    empty = pd.DataFrame({"lang": pd.array([], dtype="string"),
                          "rank": pd.array([], dtype="int64"),
                          "doc_id": pd.array([], dtype="int64"),
                          "n_chars": pd.array([], dtype="int64")})
    return hash_map_groups(partials, "lang", finish, empty=empty)


# ---------------------------------------------------------------------------
# sequence packing — distributed prefix scan into fixed context windows
# ---------------------------------------------------------------------------

def _max_doc_id(sf_dir: str) -> int:
    """Max doc_id from parquet row-group statistics — metadata only, no
    table scan (a Dataset.max would stream the whole file, text column
    included). Falls back to a doc_id-only scan if stats are absent."""
    import pyarrow.parquet as pq
    f = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    idx = f.schema_arrow.names.index("doc_id")
    best = None
    for rg in range(f.metadata.num_row_groups):
        stats = f.metadata.row_group(rg).column(idx).statistics
        if stats is None or not stats.has_min_max:
            best = None
            break
        best = stats.max if best is None else max(best, stats.max)
    if best is not None:
        return int(best)
    return int(read_docs(sf_dir, ["doc_id"]).max("doc_id"))

def pack_sequences(sf_dir: str, context_tokens: int = 512,
                   num_parts: int | None = None):
    """Concat-and-split sequence packing (the step that turns a cleaned
    corpus into fixed-size training windows): documents are laid out in
    doc_id order and the running token total assigns each doc its
    starting context window ``bin_id`` and ``bin_offset`` within it.

    Output: (doc_id, n_tokens, bin_id, bin_offset), one row per doc.

    Scale shape — a distributed exclusive prefix scan, the pattern Ray
    Data has no primitive for: (1) a vectorized count pass tags each
    doc with its doc_id-range partition; (2) per-partition token sums
    (one tiny hash aggregate) come back to the driver, which computes
    P exclusive partition offsets — P numbers, nothing else; (3) a
    partition-co-located pass sorts each range locally and adds its
    offset to a local cumsum. No global sort, no driver data pull.
    Assumes doc_ids are roughly dense for partition balance (testdata
    and any re-keyed corpus satisfy this); skew only unbalances
    partitions, never breaks correctness.
    """
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.hashagg import (default_parts,
                                                  hash_aggregate,
                                                  hash_partition_apply)
    B = int(context_tokens)
    if B <= 0:
        raise ValueError(f"context_tokens must be positive, got {B}")
    P = num_parts or default_parts()

    docs = read_docs(sf_dir, ["doc_id", "text"])
    max_id = _max_doc_id(sf_dir)
    G = max(1, (max_id + P) // P)  # doc_ids per range partition

    def count_kernel(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        n_tokens = _int64(pc.count_substring_regex(trimmed, r"\s+")) + 1
        doc = _int64(batch.column("doc_id"))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens),
            "range_part": pa.array(doc // G),
        })

    # counted is consumed TWICE (offset aggregate + partition scan);
    # without the materialize the second consumer re-runs the parquet
    # read + tokenize from lineage — a full duplicate corpus pass for
    # three tiny int64 columns (same reason tfidf_top_terms pins its
    # token counts)
    counted = docs.map_batches(count_kernel, batch_format="pyarrow",
                               batch_size=8192).materialize()

    part_sums = hash_aggregate(counted, "range_part",
                               {"total": ("n_tokens", "sum")}).to_pandas()
    part_sums = part_sums.sort_values("range_part")
    offsets = dict(zip(
        part_sums["range_part"].to_numpy(np.int64),
        np.concatenate(([0], np.cumsum(
            part_sums["total"].to_numpy(np.int64))[:-1]))))

    def scan(part: pd.DataFrame) -> pd.DataFrame:
        # one hash partition may hold SEVERAL doc_id ranges (hash
        # collision is by design) — each range scans from its own base
        outs = []
        for rp, g in part.groupby("range_part", sort=False):
            g = g.sort_values("doc_id", kind="stable")
            n = g["n_tokens"].to_numpy(np.int64)
            prev = offsets[int(rp)] + np.concatenate(([0],
                                                      np.cumsum(n)[:-1]))
            outs.append(pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "n_tokens": n,
                "bin_id": prev // B,
                "bin_offset": prev % B,
            }))
        return pd.concat(outs, ignore_index=True)

    return hash_partition_apply(counted, "range_part", scan, num_parts=P)


def global_rank(sf_dir: str, num_parts: int | None = None):
    """EXACT global rank of every document by (n_chars DESC, doc_id
    ASC) — the order-statistics primitive behind "take the longest N%",
    curriculum ordering, and sorted exports — WITHOUT a global sort.

    Scale shape (a rank-by-histogram scan, cousin of pack_sequences'
    prefix scan):
      1. one streaming pass counts docs per distinct n_chars value
         (two-level hashagg — the value histogram);
      2. the driver orders the histogram by value DESC and computes
         exclusive cumulative offsets — one small array, never rows
         (assumption: the DISTINCT-VALUE count is driver-sized; it is
         bounded by the max document length, not the corpus);
      3. one value-hash exchange co-locates each value's rows; a
         per-value vectorized finish sorts by doc_id and adds the
         value's base offset.
    No all-to-all sort of the corpus; the exchange moves (doc_id,
    n_chars) pairs only. Skew: a single massively-repeated value makes
    one hot partition — the within-value order is by doc_id, so a salted
    sub-split on doc_id ranges (with offsets from a (value, range)
    histogram) restores balance; not needed at test scale.

    Output (doc_id, n_chars, rank), rank 1..N — all-integer so the
    window-function oracle hashes identically.
    """
    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_map_groups)

    docs = read_docs(sf_dir, ["doc_id", "n_chars"])
    hist = hash_aggregate(docs, "n_chars", {"n": ("doc_id", "count")},
                          num_parts=num_parts).to_pandas()
    hist = hist.sort_values("n_chars", ascending=False)
    counts = hist["n"].to_numpy(np.int64)
    offsets = dict(zip(hist["n_chars"].to_numpy(np.int64),
                       np.concatenate(([0], np.cumsum(counts)[:-1]))))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="stable")
        base = offsets[int(g["n_chars"].iloc[0])]
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "n_chars": g["n_chars"].to_numpy(np.int64),
            "rank": base + np.arange(1, len(g) + 1, dtype=np.int64),
        })

    empty = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                          "n_chars": pd.array([], dtype="int64"),
                          "rank": pd.array([], dtype="int64")})
    return hash_map_groups(docs, "n_chars", finish, num_parts=num_parts,
                           empty=empty)


def shuffle_export(sf_dir: str, num_shards: int = 8):
    """Deterministic global shuffle for training export: every doc gets
    an md5-derived 32-bit coin; ``shard = coin % num_shards`` and
    ``pos`` = the doc's rank inside its shard ordered by (coin,
    doc_id). Reading shards in pos order yields a reproducible
    pseudo-random permutation of the corpus that breaks source/crawl
    ordering — no RNG state, no ``random_shuffle`` materialization, and
    a resumable write (one parquet per shard) falls out of the shard
    column.

    Output: (doc_id, shard, pos). One streaming coin pass + ONE hash
    exchange on the shard id; ranks are computed with a local sort per
    shard (shards are 1/num_shards of the corpus — the partitioning
    assumption to size num_shards against at 100 TB).
    """
    S = int(num_shards)
    if S <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")

    from linkinator_ray.pipelines.hashagg import hash_partition_apply

    def coin_kernel(batch: pa.Table) -> pa.Table:
        doc = _int64(batch.column("doc_id"))
        h = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
             for i in doc), dtype=np.int64, count=len(doc))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "h": pa.array(h),
            "shard": pa.array(h % S),
        })

    coined = read_docs(sf_dir, ["doc_id"]).map_batches(
        coin_kernel, batch_format="pyarrow", batch_size=8192)

    def rank(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for shard, g in part.groupby("shard", sort=False):
            g = g.sort_values(["h", "doc_id"], kind="stable")
            outs.append(pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "shard": np.full(len(g), shard, dtype=np.int64),
                "pos": np.arange(len(g), dtype=np.int64),
            }))
        return pd.concat(outs, ignore_index=True)

    return hash_partition_apply(coined, "shard", rank)


def length_quantiles(sf_dir: str,
                     qs_ppm: tuple[int, ...] = (500_000, 900_000, 990_000)):
    """EXACT token-length quantiles per language — the distributed
    quantile pattern for integer domains: a mergeable histogram
    replaces any sort of the data. Per batch, token counts combine
    into (lang, val, cnt) rows; the two-level hash aggregate merges
    histograms (rows bounded by #distinct lengths × #langs, never by
    corpus size); the quantile read-off is one tiny lang-partitioned
    pass over the merged histogram. No global sort, no sampling error
    (t-digest/GK sketches are the float-domain fallback; integer
    domains don't need them).

    Quantile definition (exact-integer, oracle-portable): the smallest
    val whose cumulative count ≥ ceil(q·n) with q in ppm, i.e.
    threshold = (q_ppm·n + 999999) // 1e6.

    Output: (lang, q_ppm, n_tokens_q).
    """
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_partition_apply)
    qs = sorted(int(q) for q in qs_ppm)
    if not qs or qs[0] < 0 or qs[-1] > 1_000_000:
        raise ValueError(f"qs_ppm must be within [0, 1e6], got {qs_ppm}")

    def val_kernel(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        toks = pa.array(
            _int64(pc.count_substring_regex(trimmed, r"\s+")) + 1)
        return pa.table({"lang": batch.column("lang"), "val": toks})

    hist = hash_aggregate(
        read_docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
            val_kernel, batch_format="pyarrow", batch_size=8192),
        ["lang", "val"], {"cnt": ("val", "count")})

    def read_off(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lang, g in part.groupby("lang", sort=False):
            g = g.sort_values("val")
            cum = g["cnt"].to_numpy(np.int64).cumsum()
            vals = g["val"].to_numpy(np.int64)
            n = int(cum[-1])
            thr = np.array([(q * n + 999_999) // 1_000_000 for q in qs],
                           dtype=np.int64)
            idx = np.searchsorted(cum, thr, side="left")
            outs.append(pd.DataFrame({
                "lang": [lang] * len(qs),
                "q_ppm": np.asarray(qs, dtype=np.int64),
                "n_tokens_q": vals[np.minimum(idx, len(vals) - 1)],
            }))
        return pd.concat(outs, ignore_index=True)

    return hash_partition_apply(hist, "lang", read_off)


def train_split(sf_dir: str, train_ppm: int = 900_000,
                val_ppm: int = 50_000, salt: str = "split"):
    """Deterministic train/val/test assignment for a training corpus:
    each doc draws a reproducible md5 coin (salted, so different splits
    of the same corpus are independent) and lands in

        train  if coin % 1e6 < train_ppm
        val    if coin % 1e6 < train_ppm + val_ppm
        test   otherwise

    Output: (doc_id, source, lang, split). The split is a pure function
    of (salt, doc_id) — any worker, any rerun, any subset of the corpus
    computes the same answer, which is what makes incremental corpus
    growth safe (new docs never reshuffle old ones, unlike rank-based
    exact-fraction splits). Per-stratum proportions concentrate at
    corpus scale (binomial); no shuffle, no driver state — one
    streaming pass at 100 TB.
    """
    t_ppm, v_ppm = int(train_ppm), int(val_ppm)
    if not (0 <= t_ppm and 0 <= v_ppm and t_ppm + v_ppm <= 1_000_000):
        raise ValueError(
            f"train_ppm + val_ppm must fit in [0, 1e6], got "
            f"{train_ppm} + {val_ppm}")

    def kernel(batch: pa.Table) -> pa.Table:
        doc = _int64(batch.column("doc_id"))
        u = np.fromiter(
            (int(hashlib.md5(f"{salt}:{i}".encode()).hexdigest()[:8], 16)
             % 1_000_000 for i in doc), dtype=np.int64, count=len(doc))
        split = np.where(u < t_ppm, "train",
                         np.where(u < t_ppm + v_ppm, "val", "test"))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "lang": batch.column("lang"),
            "split": pa.array(split.astype(object), pa.string()),
        })

    return read_docs(sf_dir, ["doc_id", "source", "lang"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=8192)


class _LogPplScorer:
    """Broadcast-LM scorer: the (token, count) table ships once per
    actor; each batch scores its docs completely (docs never span
    batches) via one is_in-free ``pc.index_in`` probe + log-table
    lookups — zero shuffle."""

    def __init__(self, cnt_ref, denom_fp: int):
        import ray
        tbl = ray.get(cnt_ref) if not isinstance(cnt_ref, pa.Table) \
            else cnt_ref
        self.tokens = tbl["token"].combine_chunks()
        self.log_c1 = _log2_fp(_int64(tbl["c"]) + 1)
        self.denom_fp = denom_fp

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = pc.list_flatten(lst)
        parent = _int64(pc.list_parent_indices(lst))
        # every token exists in the LM (trained on this corpus); a null
        # here would round-trip through float64 NaN into INT64_MIN and
        # crash opaquely downstream — fail with the real story instead
        hits = pc.index_in(flat, value_set=self.tokens)
        if hits.null_count:
            raise ValueError(
                f"unigram LM vocabulary is missing {hits.null_count} "
                "token(s) from a scored batch — the LM must be trained "
                "on the same corpus it scores")
        idx = _int64(hits)
        nll = self.denom_fp - self.log_c1[idx]  # -log2 p(t) in Q16
        d = batch.num_rows
        s = np.zeros(d, dtype=np.int64)
        np.add.at(s, parent, nll)
        n = _int64(pc.list_value_length(lst))
        return pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64()),
                         "avg_nll_q16": pa.array(s // n, pa.int64()),
                         "n_tokens": pa.array(n, pa.int64())})


def unigram_logppl(sf_dir: str, broadcast_vocab_threshold: int = 2_000_000):
    """CCNet-style perplexity quality score, self-trained: a unigram LM
    with add-one smoothing over the corpus's own token stream —
    p(t) = (c(t)+1) / (T+V) — and each doc scored by its average
    negative log2 probability. Low avg_nll ≈ ordinary text; high ≈
    rare-token noise (the standard model-based quality signal next to
    the heuristic quality_filter).

    Output: (doc_id, avg_nll_q16, n_tokens) — Q16 fixed point:
    avg_nll = Σ(log2_fp(T+V) − log2_fp(c(t)+1)) // n. All integer
    through the shared BM25_LOG2 mantissa table, so the DuckDB oracle
    reproduces scores bit-for-bit.

    Scale shape: pass 1 is ONE two-level hash aggregate over tokens
    (output vocabulary-bounded, never corpus-sized); at or under
    ``broadcast_vocab_threshold`` distinct tokens the count table
    broadcasts and pass 2 scores each batch completely map-side (zero
    shuffle); above it, the scale path explodes (doc_id, token), joins
    counts token-co-located and re-aggregates per doc — 2 extra
    exchanges, nothing vocabulary-shaped on the driver."""
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.dedup import _fanout
    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_join)

    def tok_kernel(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        p = pc.list_parent_indices(lst)
        return pa.table({"doc_id": pc.cast(batch["doc_id"].take(p),
                                           pa.int64()),
                         "token": pc.list_flatten(lst)})

    docs = _fanout(read_docs(sf_dir, ["doc_id", "text"]))
    toks = docs.map_batches(tok_kernel, batch_format="pyarrow",
                            batch_size=8192)
    cnt = hash_aggregate(toks, "token", {"c": ("doc_id", "count")}) \
        .materialize()  # vocab-bounded
    v = cnt.count()
    t_total = int(cnt.sum("c"))
    denom_fp = int(_log2_fp(np.array([t_total + v], dtype=np.int64))[0])

    if v <= broadcast_vocab_threshold:
        import ray
        cnt_tbl = pa.Table.from_pandas(cnt.to_pandas(),
                                       preserve_index=False)
        return docs.map_batches(
            _LogPplScorer, batch_format="pyarrow", batch_size=4096,
            concurrency=_autoconc(),
            fn_constructor_kwargs={"cnt_ref": ray.put(cnt_tbl),
                                   "denom_fp": denom_fp})

    # scale path: token-co-located join, then one doc_id exchange
    joined = hash_join(toks, cnt, on="token")

    def partial(batch: pa.Table) -> pa.Table:
        log_c1 = _log2_fp(_int64(batch["c"]) + 1)
        tbl = pa.table({"doc_id": batch["doc_id"],
                        "nll": pa.array(denom_fp - log_c1, pa.int64())})
        agg = tbl.group_by("doc_id", use_threads=False).aggregate(
            [("nll", "sum"), ([], "count_all")])
        return pa.table({"doc_id": agg["doc_id"],
                         "s": agg["nll_sum"],
                         "n": pc.cast(agg["count_all"], pa.int64())})

    per = hash_aggregate(
        joined.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536),
        "doc_id", {"s": ("s", "sum"), "n": ("n", "sum")})

    def finish(batch: pa.Table) -> pa.Table:
        s = _int64(batch["s"])
        n = _int64(batch["n"])
        return pa.table({"doc_id": batch["doc_id"],
                         "avg_nll_q16": pa.array(s // n, pa.int64()),
                         "n_tokens": pa.array(n, pa.int64())})

    return per.map_batches(finish, batch_format="pyarrow")


def text_normalize(sf_dir: str):
    """Pre-dedup text canonicalization: Unicode NFC → Unicode lowercase
    → whitespace collapse (\\s+ → one space) → trim. The standard
    normalization pass before exact/near dedup so trivially-variant
    copies (combining chars vs precomposed, case, whitespace runs)
    hash identically downstream.

    Output: (doc_id, text_norm, n_chars_norm).

    Parity note: lowercase runs through Arrow's utf8proc kernel — the
    SAME library DuckDB's lower() uses — and NFC through Python's
    unicodedata (UAX#15, stable since Unicode 4.1), so the oracle
    reproduces every row exactly (verified on İ/ß/ligature/combining
    edges). NFC is the one per-string C call (no Arrow kernel exists);
    everything else is vectorized. Pure streaming map, no shuffle.
    """
    import pyarrow.compute as pc

    def kernel(batch: pa.Table) -> pa.Table:
        norm = _normalize_text_arr(_text_col(batch))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text_norm": norm,
                         "n_chars_norm": pc.cast(pc.utf8_length(norm),
                                                 pa.int64())})

    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=8192)


def chunk_documents(sf_dir: str, chunk_tokens: int = 64,
                    overlap: int = 16):
    """RAG-style fixed-size token chunking with overlap: each doc's
    whitespace token stream splits into windows of ``chunk_tokens``
    advancing by ``chunk_tokens - overlap``; the last window clips to
    the doc end and a doc always yields at least one chunk
    (num_chunks = max(1, ceil((n - overlap) / stride))).

    Output: (doc_id, chunk_id, chunk_text, n_tokens) — chunk_text is
    the space-joined token window (normalized whitespace by
    construction, same tokenizer as every text operator here).

    Scale shape: pure streaming map — one RE2 split per batch, the
    overlapping windows materialize as ONE flat gather (np.repeat
    offset arithmetic → a single ``take`` + ``ListArray`` wrap +
    ``pc.binary_join``), no Python loop, no shuffle, output ~
    (1 + overlap/stride)× input text. DuckDB oracle reproduces rows
    exactly (generate_series + list_slice + array_to_string).
    """
    import pyarrow.compute as pc

    if not 0 <= overlap < chunk_tokens:
        raise ValueError(f"need 0 <= overlap < chunk_tokens: "
                         f"chunk_tokens={chunk_tokens}, overlap={overlap}")
    stride = chunk_tokens - overlap

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # np.repeat broadcast fails on 0 rows
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_id": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string()),
                             "n_tokens": pa.array([], pa.int64())})
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = pc.list_flatten(lst)
        lens = _int64(pc.list_value_length(lst))
        doc_off = np.concatenate(([0], np.cumsum(lens)))
        num = np.maximum(1, (lens - overlap + stride - 1) // stride)
        doc_idx = np.repeat(np.arange(len(lens)), num)
        chunk_id = np.arange(int(num.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(num[:-1]))), num)
        starts = chunk_id * stride
        clens = np.minimum(starts + chunk_tokens, lens[doc_idx]) - starts
        base = doc_off[doc_idx] + starts
        gidx = np.repeat(base, clens) + (
            np.arange(int(clens.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(clens[:-1]))), clens))
        taken = flat.take(pa.array(gidx, pa.int64()))
        # ListArray offsets are int32 — fine per batch (≤4096 docs ×
        # chunk windows ≪ 2^31 tokens)
        chunks = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(clens))), pa.int32()),
            taken)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"].take(
                pa.array(doc_idx, pa.int64())), pa.int64()),
            "chunk_id": pa.array(chunk_id, pa.int64()),
            "chunk_text": pc.binary_join(chunks, " "),
            "n_tokens": pa.array(clens, pa.int64())})

    return read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        kernel, batch_format="pyarrow", batch_size=4096)


class _TfidfTopK:
    """Map-side df lookup + per-block top-k: the broadcast (token, df)
    table is fetched ONCE per actor; each block's docs are complete
    (tf rows never leave their originating tokenize batch), so the
    per-doc top-k finishes in-block with zero exchange."""

    def __init__(self, df_ref, k: int):
        import ray
        tbl = ray.get(df_ref) if not isinstance(df_ref, pa.Table) else df_ref
        self.tokens = tbl["token"].combine_chunks()
        self.df = _int64(tbl["df"])
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        hits = pc.index_in(batch["token"], value_set=self.tokens)
        if hits.null_count:  # see _LogPplScorer — loud beats INT64_MIN
            raise ValueError(
                f"global df table is missing {hits.null_count} token(s) "
                "present in a tf batch — df must cover the full corpus")
        idx = _int64(hits)
        df = self.df[idx]
        tf = _int64(batch["tf"])
        scored = pa.table({"doc_id": batch["doc_id"],
                           "token": batch["token"],
                           "tf": batch["tf"],
                           "df": pa.array(df, pa.int64()),
                           "score": pa.array(tf * 1_000_000 // df,
                                             pa.int64())})
        order = pc.sort_indices(scored, sort_keys=[
            ("doc_id", "ascending"), ("score", "descending"),
            ("token", "ascending")])
        s = scored.take(order)
        doc = _int64(s["doc_id"])
        starts = np.flatnonzero(np.concatenate(([True], doc[1:] != doc[:-1])))
        counts = np.diff(np.concatenate((starts, [len(doc)])))
        rank = np.arange(len(doc), dtype=np.int64) - np.repeat(starts, counts)
        keep = rank < self.k
        out = s.filter(pa.array(keep))
        return pa.table({"doc_id": out["doc_id"], "token": out["token"],
                         "tf": out["tf"], "df": out["df"],
                         "rank": pa.array(rank[keep] + 1, pa.int64())})


def tfidf_top_terms(sf_dir: str, k: int = 3,
                    broadcast_df_threshold: int = 2_000_000):
    """Per-doc top-k distinguishing terms by tf/df ratio — the
    inverted-index shape (term statistics need corpus-wide document
    frequencies). Ranking is EXACT integer ((tf*1e6)//df descending,
    token ascending): no float idf, so the DuckDB oracle hashes
    identically.

    Output: (doc_id, token, tf, df, rank), k rows per doc.

    Scale shape: per-doc term frequencies complete inside each batch
    (a doc never spans batches), so tf needs NO exchange and the term
    table is MATERIALIZED once (lineage would re-run the tokenize pass
    per consumer). df is one two-level hash aggregate over tokens —
    output bounded by VOCABULARY size, not corpus size. At or under
    ``broadcast_df_threshold`` distinct tokens (2M ≈ 30 MB) the df
    table broadcasts and scoring + per-doc top-k finish map-side with
    ZERO further exchange (docs never span blocks); above it, the
    scale path joins df back token-co-located (hash_join) and takes
    the per-doc top-k after one doc_id exchange — same hybrid pattern
    as dedup_minhash's hot-bucket auto-switch."""
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_join,
                                                  hash_partition_apply)

    def tf_kernel(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        p = pc.list_parent_indices(lst)
        doc = batch.column("doc_id").take(p)
        t = pa.table({"doc_id": doc, "token": pc.list_flatten(lst)})
        agg = t.group_by(["doc_id", "token"], use_threads=False) \
            .aggregate([([], "count_all")])
        return pa.table({"doc_id": agg["doc_id"],
                         "token": agg["token"],
                         "tf": pc.cast(agg["count_all"], pa.int64())})

    tc = _fanout(read_docs(sf_dir, ["doc_id", "text"])).map_batches(
        tf_kernel, batch_format="pyarrow", batch_size=8192).materialize()
    # vocab-bounded (never corpus-sized): safe to pin in the object
    # store so the count + fetch below don't re-run the aggregate
    df = hash_aggregate(tc, "token", {"df": ("doc_id", "count")}) \
        .materialize()

    if df.count() <= broadcast_df_threshold:
        import ray
        df_tbl = pa.Table.from_pandas(df.to_pandas(),
                                      preserve_index=False)
        return tc.map_batches(
            _TfidfTopK, batch_format="pyarrow", batch_size=None,
            concurrency=_autoconc(),
            fn_constructor_kwargs={"df_ref": ray.put(df_tbl), "k": k})

    joined = hash_join(tc, df, on="token")

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["score"] = part["tf"].to_numpy(np.int64) * 1_000_000 \
            // part["df"].to_numpy(np.int64)
        part = part.sort_values(["doc_id", "score", "token"],
                                ascending=[True, False, True],
                                kind="stable")
        part["rank"] = part.groupby("doc_id", sort=False).cumcount() + 1
        out = part[part["rank"] <= k]
        return out[["doc_id", "token", "tf", "df", "rank"]].astype(
            {"doc_id": "int64", "tf": "int64", "df": "int64",
             "rank": "int64"})

    return hash_partition_apply(joined, "doc_id", topk)


def keyword_search(sf_dir: str, terms: tuple[str, ...] = ("hash", "join"),
                   k: int = 10):
    """Boolean-AND keyword retrieval: the k docs containing EVERY query
    term, ranked by total term frequency (desc, doc_id tiebreak).

    Shape: a doc never spans batches, so each batch computes its docs'
    complete scores with two C-speed Arrow group_bys (term filter via
    ``pc.is_in`` on the flattened token stream — the inverted-index
    probe without materializing the index) and emits only its LOCAL
    top-k. The driver merges ≤ batches×k rows — a mergeable top-k,
    never a corpus-sized result. Matches the reference's "check one
    page's links" granularity flipped corpus-wide.
    """
    import pyarrow.compute as pc

    uniq_terms = sorted(set(terms))
    term_arr = pa.array(uniq_terms)
    need = len(uniq_terms)

    def partial(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        pairs = pa.table({"p": pc.list_parent_indices(lst),
                          "tok": pc.list_flatten(lst)})
        pairs = pairs.filter(pc.is_in(pairs["tok"], value_set=term_arr))
        if pairs.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        per = pairs.group_by(["p", "tok"], use_threads=False).aggregate(
            [([], "count_all")])
        agg = per.group_by("p", use_threads=False).aggregate(
            [("count_all", "sum"), ([], "count_all")])
        hit = agg.filter(pc.equal(agg["count_all"], need))
        doc = batch["doc_id"].take(hit["p"])
        out = pa.table({"doc_id": pc.cast(doc, pa.int64()),
                        "score": pc.cast(hit["count_all_sum"], pa.int64())})
        order = pc.sort_indices(out, sort_keys=[("score", "descending"),
                                                ("doc_id", "ascending")])
        return out.take(order[:k])

    tops = read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    tops = tops.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(k)
    return pa.Table.from_pandas(tops.reset_index(drop=True),
                                preserve_index=False)


# ---------------------------------------------------------------------------
# BM25 ranked retrieval — exact integer fixed point
# ---------------------------------------------------------------------------
# k1 = 1.2 and b = 0.75 enter the score as the exact rationals 6/5 and
# 3/4, so the tf normalization is a pure integer expression (below).
# The idf's log2 runs in Q16 fixed point through a 256-entry mantissa
# table shared verbatim with the DuckDB oracle (same trade as HLL_LC):
# log2_fp(x) = (msb exponent)·2^16 + BM25_LOG2[top 8 mantissa bits].
# Deterministic integer function of x — both sides reproduce it
# bit-for-bit; resolution ~2^-9 relative, far below ranking granularity.
import math as _bm_math  # noqa: E402

BM25_LOG2 = [round(_bm_math.log2(1 + i / 256) * 65536) for i in range(256)]


def _log2_fp(x: np.ndarray) -> np.ndarray:
    """Q16 fixed-point log2 of positive int64 values (vectorized).
    Exponent via bit_length-1; mantissa bucketed to 8 bits through the
    shared BM25_LOG2 table. Matches the SQL `length(bin(x))-1` idiom."""
    x = np.asarray(x, dtype=np.int64)
    # vectorized floor(log2(x)) via 6 binary-search shifts; arguments
    # here are < 2^52 so the <<8 below cannot overflow int64
    e = np.zeros(len(x), dtype=np.int64)
    v = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.int64(1) << shift)
        e[big] += shift
        v[big] >>= shift
    mant = ((x << 8) >> e) & 255
    table = np.asarray(BM25_LOG2, dtype=np.int64)
    return e * 65536 + table[mant]


def bm25_search(sf_dir: str, terms: tuple[str, ...] = ("hash", "dup",
                                                       "window"),
                k: int = 10):
    """BM25 ranked retrieval (OR semantics): top-k docs by summed BM25
    term scores, k1=1.2, b=0.75, BM25+-style idf
    ``log2(1 + (N-df+0.5)/(df+0.5))`` (never negative).

    Every arithmetic step is integer fixed point so the DuckDB oracle
    reproduces scores bit-for-bit: avgdl and dl carry Q10, idf carries
    Q16 through the shared BM25_LOG2 mantissa table, and the tf
    normalization ``tf·(k1+1) / (tf + k1·(1-b+b·dl/avgdl))`` becomes the
    exact rational ``44·tf·avgdl_fp·1024 // (20·tf·avgdl_fp +
    6·avgdl_fp + 18·dl_fp)`` (multiply through by 20·avgdl). Magnitudes
    stay int64-safe independent of corpus size: idf_fp grows
    logarithmically with N (≈2.3M at N=10^10) and tfnorm_fp ≤ 2253, so
    a term score is ≤ ~5×10^9 (contrast the pagerank overflow guard —
    this shape needs none).

    Scale shape (100 TB): BM25 needs global stats before scoring, so
    two streaming passes — pass 1 reduces each batch to |terms|+1 tiny
    partial rows (df per term, doc count, token count: a combiner, no
    shuffle); pass 2 scores each batch completely (a doc never spans
    batches) with the same flattened-token Arrow group_bys as
    keyword_search and emits only its LOCAL top-k, so the driver merges
    ≤ batches×k rows. Nothing corpus-sized moves.
    """
    import pyarrow.compute as pc

    uniq_terms = sorted(set(terms))
    term_arr = pa.array(uniq_terms)

    def _split(batch: pa.Table):
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        return lst

    def stats_partial(batch: pa.Table) -> pa.Table:
        lst = _split(batch)
        dl = pc.list_value_length(lst)
        pairs = pa.table({"p": pc.list_parent_indices(lst),
                          "tok": pc.list_flatten(lst)})
        pairs = pairs.filter(pc.is_in(pairs["tok"], value_set=term_arr))
        toks, dfs = [], []
        if pairs.num_rows:
            per = pairs.group_by("tok", use_threads=False).aggregate(
                [("p", "count_distinct")])
            toks = per["tok"].to_pylist()
            dfs = [int(v) for v in per["p_count_distinct"].to_pylist()]
        toks.append("\x00stats")
        dfs.append(0)
        n = np.zeros(len(toks), dtype=np.int64)
        dl_sum = np.zeros(len(toks), dtype=np.int64)
        n[-1] = batch.num_rows
        dl_sum[-1] = int(pc.sum(dl).as_py() or 0)
        return pa.table({"tok": pa.array(toks, pa.string()),
                         "df": pa.array(dfs, pa.int64()),
                         "n": n, "dl_sum": dl_sum})

    # single-file reads give ONE block → both tokenize passes would run
    # on one task; fan out to ~CPU count first (dedup.py:_fanout)
    from linkinator_ray.pipelines.dedup import _fanout
    stats = _fanout(read_docs(sf_dir, ["doc_id", "text"])).map_batches(
        stats_partial, batch_format="pyarrow",
        batch_size=8192).to_pandas()
    agg = stats.groupby("tok", as_index=True)[["df", "n", "dl_sum"]].sum()
    n_docs = int(agg["n"].sum())
    total_len = int(agg["dl_sum"].sum())
    if n_docs == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64())})
    avgdl_fp = (total_len * 1024) // n_docs  # Q10
    df_of = {t: int(agg.loc[t, "df"]) if t in agg.index else 0
             for t in uniq_terms}
    # idf_fp (Q16): log2(1 + (N-df+0.5)/(df+0.5)) with the argument
    # floored into Q16 first — one shared rounding point on both sides
    arg_q16 = np.array(
        [((2 * n_docs - 2 * df_of[t] + 1) * 65536) // (2 * df_of[t] + 1)
         + 65536 for t in uniq_terms], dtype=np.int64)
    idf_fp = _log2_fp(arg_q16) - 16 * 65536

    def score_partial(batch: pa.Table) -> pa.Table:
        lst = _split(batch)
        dl_fp = _int64(pc.list_value_length(lst)) * 1024  # Q10
        pairs = pa.table({"p": pc.list_parent_indices(lst),
                          "tok": pc.list_flatten(lst)})
        pairs = pairs.filter(pc.is_in(pairs["tok"], value_set=term_arr))
        if pairs.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        per = pairs.group_by(["p", "tok"], use_threads=False).aggregate(
            [([], "count_all")])
        p_idx = _int64(per["p"])
        tf = _int64(per["count_all"])
        t_idx = _int64(pc.index_in(per["tok"], value_set=term_arr))
        dl_term = dl_fp[p_idx]
        tfnorm_fp = (44 * tf * avgdl_fp * 1024) // (
            20 * tf * avgdl_fp + 6 * avgdl_fp + 18 * dl_term)  # Q10
        sc = idf_fp[t_idx] * tfnorm_fp  # Q26
        agg_t = pa.table({"p": p_idx, "sc": sc}).group_by(
            "p", use_threads=False).aggregate([("sc", "sum")])
        out = pa.table({
            "doc_id": pc.cast(batch["doc_id"].take(agg_t["p"]), pa.int64()),
            "score": pc.cast(agg_t["sc_sum"], pa.int64())})
        order = pc.sort_indices(out, sort_keys=[("score", "descending"),
                                                ("doc_id", "ascending")])
        return out.take(order[:k])

    tops = _fanout(read_docs(sf_dir, ["doc_id", "text"])).map_batches(
        score_partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    tops = tops.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(k)
    return pa.Table.from_pandas(tops.reset_index(drop=True),
                                preserve_index=False)


# HyperLogLog constants shared with the DuckDB oracle: p=8 (256
# registers), fixed-point estimator with alpha_256 as an exact ppm
# integer — every arithmetic step is integer, so the SQL oracle
# reproduces the estimate bit-for-bit (same trade as the field-hashed
# dedup family).
HLL_P = 8
HLL_M = 1 << HLL_P
HLL_Q = 64
HLL_ALPHA_PPM = 720253  # floor(1e6 * 0.7213 / (1 + 1.079/256))
# small-range (linear counting) correction, applied when the raw
# estimate ≤ 5m/2 and some register is empty: m·ln(m/V) has only m
# possible values, precomputed as an integer table so Python and the
# SQL oracle agree bit-for-bit (index = V, the empty-register count)
import math as _math  # noqa: E402

HLL_LC = [0] + [round(HLL_M * _math.log(HLL_M / v))
                for v in range(1, HLL_M + 1)]


def hll_distinct_tokens(sf_dir: str):
    """Per-language distinct-token cardinality via a mergeable
    HyperLogLog sketch — the 100 TB answer to COUNT(DISTINCT): every
    batch reduces to ≤ langs×256 (lang, bucket, rho) register rows, a
    max-merge exchange combines them (registers are the canonical
    mergeable sketch), and the integer fixed-point estimator reads off
    ≤ langs rows. Distinct-token truth never shuffles; accuracy is the
    standard ~1.04/√256 ≈ 6.5% (observed ≈0.5% on this vocab;
    pytest-bounded).
    """
    import pyarrow.compute as pc

    sfx_bits = 64 - HLL_P
    sfx_mask = np.uint64((1 << sfx_bits) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        parent = _int64(pc.list_parent_indices(lst))
        flat = pc.list_flatten(lst)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "bucket": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        # md5 once per DISTINCT token (dictionary encode), then gather
        d = flat.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        uh = np.array([int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                                      "big") for t in uniq],
                      dtype=np.uint64)
        h = uh[np.asarray(d.indices.to_numpy(zero_copy_only=False),
                          dtype=np.int64)]
        bucket = (h >> np.uint64(sfx_bits)).astype(np.int64)
        suffix = h & sfx_mask
        rho = np.full(len(h), sfx_bits + 1, dtype=np.int64)
        nz = suffix > 0
        if nz.any():
            s = suffix[nz]
            e = np.floor(np.log2(s.astype(np.float64))).astype(np.int64)
            # float log2 can be off by one near powers of 2 — correct
            # exactly with integer shifts
            e -= (np.left_shift(np.uint64(1), e.astype(np.uint64)) > s)
            e += (np.left_shift(np.uint64(1),
                                (e + 1).astype(np.uint64)) <= s)
            rho[nz] = sfx_bits - (e + 1) + 1
        langs = batch.column("lang").take(pa.array(parent))
        t = pa.table({"lang": langs, "bucket": pa.array(bucket),
                      "rho": pa.array(rho)})
        agg = t.group_by(["lang", "bucket"], use_threads=False).aggregate(
            [("rho", "max")])
        return pa.table({"lang": agg["lang"], "bucket": agg["bucket"],
                         "rho": agg["rho_max"]})

    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_map_groups)
    regs = hash_aggregate(
        read_docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
            partial, batch_format="pyarrow", batch_size=8192),
        ["lang", "bucket"], {"mr": ("rho", "max")})

    def estimate(g: pd.DataFrame) -> pd.DataFrame:
        s = sum(1 << (HLL_Q - int(r)) for r in g["mr"])
        v = HLL_M - len(g)  # empty registers
        s += v * (1 << HLL_Q)
        est = HLL_ALPHA_PPM * HLL_M * HLL_M * (1 << HLL_Q) // s // 1_000_000
        if est <= 5 * HLL_M // 2 and v > 0:
            est = HLL_LC[v]  # standard small-range linear counting
        return pd.DataFrame({"lang": [g["lang"].iloc[0]],
                             "distinct_est": np.array([est], np.int64)})

    empty = pd.DataFrame({"lang": pd.array([], dtype="string"),
                          "distinct_est": pd.array([], dtype="int64")})
    return hash_map_groups(regs, "lang", estimate, empty=empty)


# Count-min sketch parameters shared with the DuckDB oracle: d=4 rows,
# w=1024 counters; per-row column hash = md5("r:token") mod w — exact
# on both engines, so the sketch (and its over-estimates) reproduce
# bit-for-bit.
CMS_D = 4
CMS_W = 1024


def cms_token_counts(sf_dir: str,
                     query_tokens: tuple[str, ...] = (
                         "hash", "join", "scan", "llama", "zzz_absent")):
    """Count-min sketch frequency estimates for a query-token set — the
    streaming answer to "how often does X occur" without a vocabulary
    shuffle: every batch reduces to ≤ d×w counter increments, ONE
    sum-merge exchange combines them (counters are mergeable by
    addition), and the query tokens read min-of-d cells off the final
    d×w=4096-cell sketch. Estimates are ≥ truth (one-sided error, by
    construction); collisions only ever ADD.

    Output: (token, est_count) for each query token.
    """
    import pyarrow.compute as pc

    def col_of(row: int, toks: list[str]) -> np.ndarray:
        return np.fromiter(
            (int.from_bytes(hashlib.md5(f"{row}:{t}".encode()).digest()[:8],
                            "big") % CMS_W for t in toks),
            dtype=np.int64, count=len(toks))

    def partial(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = pc.list_flatten(lst)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) == 0:
            return pa.table({"row": pa.array([], pa.int64()),
                             "col": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        # one md5 per DISTINCT token per row-salt; counts via group_by
        d = flat.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        counts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(counts, np.asarray(
            d.indices.to_numpy(zero_copy_only=False), dtype=np.int64), 1)
        rows, cols, ns = [], [], []
        for r in range(CMS_D):
            c = col_of(r, uniq)
            # collapse distinct tokens sharing a cell within this batch
            cell = np.zeros(CMS_W, dtype=np.int64)
            np.add.at(cell, c, counts)
            nz = np.flatnonzero(cell)
            rows.append(np.full(len(nz), r, dtype=np.int64))
            cols.append(nz.astype(np.int64))
            ns.append(cell[nz])
        return pa.table({"row": pa.array(np.concatenate(rows)),
                         "col": pa.array(np.concatenate(cols)),
                         "n": pa.array(np.concatenate(ns))})

    from linkinator_ray.pipelines.hashagg import hash_aggregate
    sketch = hash_aggregate(
        read_docs(sf_dir, ["doc_id", "text"]).map_batches(
            partial, batch_format="pyarrow", batch_size=8192),
        ["row", "col"], {"n": ("n", "sum")}).to_pandas()
    cells = {(int(r), int(c)): int(n)
             for r, c, n in zip(sketch["row"], sketch["col"], sketch["n"])}
    toks = sorted(set(query_tokens))
    ests = []
    for t in toks:
        est = min(cells.get(
            (r, int.from_bytes(hashlib.md5(f"{r}:{t}".encode()).digest()[:8],
                               "big") % CMS_W), 0) for r in range(CMS_D))
        ests.append(est)
    return pa.table({"token": pa.array(toks, pa.string()),
                     "est_count": pa.array(ests, pa.int64())})


def prepare_corpus(sf_dir: str, min_tokens: int = 20,
                   max_tokens: int = 1000, min_alpha_ppm: int = 500_000,
                   num_parts: int | None = None):
    """The composed training-data preprocessing flagship — normalize →
    quality-gate → exact-dedup → per-language summary as ONE streaming
    pipeline (no intermediate materialization, document text never
    survives the scan stage).

    Per batch: NFC + utf8proc lowercase + whitespace collapse (the
    text_normalize kernel), token/alpha quality stats computed ON THE
    NORMALIZED text, failing rows dropped, and each kept doc reduced to
    a 4-column row (md5(text_norm) hex, doc_id, lang, n_tokens) —
    ~60 B/doc regardless of document size. ONE hash exchange on the
    content hash co-locates duplicates; the per-partition keeper kernel
    (min doc_id wins, keeper's lang attributes the group) emits one row
    per DISTINCT text; a final tiny per-language aggregate reads off
    (lang, n_kept, kept_tokens, n_dup_dropped).

    Same conventions as the component operators (text_normalize /
    quality_filter / dedup_exact), so the DuckDB oracle is their CTE
    chain — exact, hash-portable, no floats anywhere."""
    return prepare_corpus_ds(
        _fanout(read_docs(sf_dir, ["doc_id", "text", "lang"])),
        min_tokens=min_tokens, max_tokens=max_tokens,
        min_alpha_ppm=min_alpha_ppm, num_parts=num_parts)


def prepare_corpus_ds(docs, min_tokens: int = 20, max_tokens: int = 1000,
                      min_alpha_ppm: int = 500_000,
                      num_parts: int | None = None):
    """Core of ``prepare_corpus`` over any (doc_id, text, lang) dataset
    — callers can pre-gate the corpus (e.g. graph.crawl_prepare_corpus
    feeds only the crawl's reachable-OK pages)."""
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_partition_apply)

    def kernel(batch: pa.Table) -> pa.Table:
        norm = _normalize_text_arr(_text_col(batch))
        # trim is a no-op on norm, so the token rule matches
        # _stats_kernel / the quality_filter oracle applied to t
        n_tokens = _int64(pc.count_substring_regex(norm, r"\s+")) + 1
        n_chars = _int64(pc.utf8_length(norm))
        alpha = _int64(pc.count_substring_regex(norm, "[A-Za-z]"))
        alpha_ppm = alpha * 1_000_000 // np.maximum(n_chars, 1)
        keep = pa.array((n_tokens >= min_tokens) & (n_tokens <= max_tokens)
                        & (alpha_ppm >= min_alpha_ppm))
        kept_norm = norm.filter(keep)
        h = pa.array([hashlib.md5(t.encode()).hexdigest()
                      for t in kept_norm.to_pylist()], pa.string())
        return pa.table({
            "h": h,
            "doc_id": batch.column("doc_id").filter(keep),
            "lang": batch.column("lang").filter(keep),
            "n_tokens": pa.array(n_tokens[keep.to_numpy(
                zero_copy_only=False)])})

    kept = docs.map_batches(kernel, batch_format="pyarrow",
                            batch_size=4096)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "lang": pd.Series(dtype="object"),
                "n_tokens": pd.Series(dtype="int64"),
                "grp_n": pd.Series(dtype="int64")})
        df = df.sort_values("doc_id")
        g = df.groupby("h", sort=False)
        first = g[["lang", "n_tokens"]].first()  # keeper = min doc_id
        return pd.DataFrame({
            "lang": first["lang"].to_numpy(),
            "n_tokens": first["n_tokens"].to_numpy(np.int64),
            "grp_n": g.size().to_numpy(np.int64)})

    groups = hash_partition_apply(kept, "h", per_part, num_parts=num_parts)

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by("lang", use_threads=False).aggregate(
            [([], "count_all"), ("n_tokens", "sum"), ("grp_n", "sum")])
        return pa.table({
            "lang": agg["lang"],
            "nk": agg["count_all"],
            "tok": agg["n_tokens_sum"],
            "dups": pc.subtract(agg["grp_n_sum"], agg["count_all"])})

    return hash_aggregate(
        groups.map_batches(partial, batch_format="pyarrow"),
        "lang", {"n_kept": ("nk", "sum"), "kept_tokens": ("tok", "sum"),
                 "n_dup_dropped": ("dups", "sum")},
        num_parts=num_parts)  # unordered; comparators sort


def bigram_counts(sf_dir: str, k: int = 20):
    """Global top-k BIGRAMS by occurrence count (collocation mining —
    the n-gram statistics pass of corpus analysis, same exchange shape
    as top_tokens but over a quadratically sparser key space).

    Per batch: one regex split to a list column, consecutive-token
    pairing fully vectorized on the flattened array (same-parent mask,
    no Python loop), binary_join to the bigram string, C-speed group_by
    as the combiner. Two-level hash aggregate merges the partials (rows
    bounded by distinct bigrams, pre-combined per batch); per-partition
    local top-k is a valid partial because each bigram's global count
    lives in exactly one hash partition; driver sees P×k rows."""
    import pyarrow.compute as pc

    from linkinator_ray.pipelines.hashagg import hash_aggregate, topk

    def partial(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        flat = lst.combine_chunks() if isinstance(
            lst, pa.ChunkedArray) else lst
        toks = flat.flatten()
        parents = pc.list_parent_indices(flat).to_numpy(
            zero_copy_only=False)
        if len(toks) < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same = parents[:-1] == parents[1:]
        idx = np.flatnonzero(same)
        left = toks.take(pa.array(idx))
        right = toks.take(pa.array(idx + 1))
        bigrams = pc.binary_join_element_wise(left, right, " ")
        agg = pa.table({"bigram": bigrams}).group_by(
            "bigram", use_threads=False).aggregate([([], "count_all")])
        return pa.table({"bigram": agg.column("bigram"),
                         "n": agg.column("count_all")})

    partials = read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)
    merged = hash_aggregate(partials, "bigram", {"n": ("n", "sum")})
    return topk(merged, k, [("n", "descending"), ("bigram", "ascending")])


def vocab_build(sf_dir: str, min_doc_freq: int = 2,
                num_parts: int | None = None):
    """Frequency-filtered vocabulary with STABLE dense ids — the
    tokenizer-prep operator: every token with document frequency >=
    ``min_doc_freq`` gets vocab_id = its exact rank under (doc_freq
    DESC, token ASC).

    Scale shape (global_rank's rank-by-histogram scan aimed at the
    vocabulary): per-batch distinct-token doc-count combiner → ONE
    token-hash exchange merges doc frequencies (vocab-bounded, never
    corpus-bounded) → frequency histogram on the driver (bounded by
    max doc freq, i.e. corpus doc count DISTINCT VALUES — small) →
    one freq-hash exchange co-locates each frequency band, a per-band
    vectorized finish sorts tokens lexicographically and adds the
    band's exclusive prefix offset. No global sort; nothing
    vocabulary-sized on the driver."""
    from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                                  hash_map_groups)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        trimmed = pc.utf8_trim_whitespace(_text_col(batch))
        lst = pc.split_pattern_regex(trimmed, r"\s+")
        pairs = pa.table({"p": pc.list_parent_indices(lst),
                          "token": pc.list_flatten(lst)})
        distinct = pairs.group_by(["p", "token"],
                                  use_threads=False).aggregate([])
        agg = distinct.group_by("token", use_threads=False).aggregate(
            [([], "count_all")])
        return pa.table({"token": agg.column("token"),
                         "n": agg.column("count_all")})

    partials = read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)
    freqs = hash_aggregate(partials, "token", {"doc_freq": ("n", "sum")},
                           num_parts=num_parts)

    def thresh(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(
            pc.greater_equal(batch["doc_freq"],
                             pa.scalar(min_doc_freq, pa.int64())))

    # materialize: kept is consumed twice (histogram + finish) and is
    # vocab-bounded; without this the corpus tokenize + token exchange
    # would re-execute for the second consumer
    kept = freqs.map_batches(thresh, batch_format="pyarrow").materialize()
    hist = hash_aggregate(kept, "doc_freq", {"n": ("token", "count")},
                          num_parts=num_parts).to_pandas()
    hist = hist.sort_values("doc_freq", ascending=False)
    counts = hist["n"].to_numpy(np.int64)
    offsets = dict(zip(hist["doc_freq"].to_numpy(np.int64),
                       np.concatenate(([0], np.cumsum(counts)[:-1]))))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("token", kind="stable")
        base = offsets[int(g["doc_freq"].iloc[0])]
        return pd.DataFrame({
            "token": g["token"].to_numpy(),
            "doc_freq": g["doc_freq"].to_numpy(np.int64),
            "vocab_id": base + np.arange(1, len(g) + 1, dtype=np.int64),
        })

    empty = pd.DataFrame({"token": pd.array([], dtype="str"),
                          "doc_freq": pd.array([], dtype="int64"),
                          "vocab_id": pd.array([], dtype="int64")})
    return hash_map_groups(kept, "doc_freq", finish, num_parts=num_parts,
                           empty=empty)
