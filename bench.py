#!/usr/bin/env python
"""Bench harness. Prints ONE JSON line:
    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N, ...}

Headline: full BFS crawl of the deterministic multi-host synthetic
corpus (mock transport — measures the engine: frontier rounds, seen-set
actors, fetch pool, extraction, classification). Secondary: the
training-data pipelines over $GRAFT_SF_DIR.

``--scaling``: runs the headline crawl in two fresh processes at
num_cpus=8 and 32 on the same corpus and reports throughput at both
plus efficiency = (T32/T8)/4 — the sandbox realization of the
N-vs-4N-nodes criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SF = float(SF_DIR.rstrip("/").split("sf")[-1]) if "sf" in SF_DIR else 0.0

# crawl corpus scale (deterministic; independent of SF_DIR table sizes)
CRAWL_HOSTS = int(os.environ.get("BENCH_CRAWL_HOSTS", "16"))
CRAWL_DOCS_PER_HOST = int(os.environ.get("BENCH_CRAWL_DOCS", "4000"))
# Wire model (BASELINE.md bench protocol): 50 ms RTT per request, 12
# concurrent connections per fetch actor. Each "node" (actor) brings
# its own connection budget — exactly how cluster fetch capacity grows
# with node count. 0 = compute-only mode.
CRAWL_LATENCY_MS = float(os.environ.get("BENCH_LATENCY_MS", "50.0"))
CONNS_PER_ACTOR = int(os.environ.get("BENCH_CONNS_PER_ACTOR", "12"))


def _make_opts(ncpu: int, seeds):
    """Both regimes run the actor-mesh frontier: each node sends its
    peers their candidates at the end of every pump, which keeps every
    connection pool fed in the wire model (latency > 0), and no
    driver-serial dedup work caps the coordination-bound compute-only
    regime (BASELINE.md scaling section)."""
    from linkinator_ray.options import CheckOptions
    actors = max(2, ncpu // 2)
    wire = CRAWL_LATENCY_MS > 0
    return CheckOptions(
        paths=seeds, recurse=True,
        fetch_concurrency=actors,
        concurrency=CONNS_PER_ACTOR * actors,  # connection budget scales with nodes
        seen_filter="cuckoo",
        batch_size=4096 if wire else 2048,
    )


def run_crawl(ncpu: int) -> dict:
    from linkinator_ray.pipelines.crawl import LinkChecker
    from linkinator_ray.sources.synth import synth_crawl_corpus

    # warm-up: a small untimed crawl spawns+imports the worker
    # processes (a production cluster's workers are warm; the first-ever
    # actor round otherwise pays a ~60s import storm that measures the
    # interpreter, not the engine)
    wdocs, wseeds, _, _ = synth_crawl_corpus(num_hosts=4, docs_per_host=64)
    LinkChecker(_make_opts(ncpu, wseeds), wdocs, [], multi_host=True,
                use_ray=True).check()

    docs, seeds, expected_seen, _ = synth_crawl_corpus(
        num_hosts=CRAWL_HOSTS, docs_per_host=CRAWL_DOCS_PER_HOST)
    # best-of-N: this sandbox VM shows 3-5x noisy-neighbor swings on
    # identical runs; the minimum is the engine's actual capability
    repeats = int(os.environ.get("BENCH_REPEATS", "3"))
    drain = float("inf")
    res = None
    for _ in range(repeats):
        t0 = time.time()
        checker = LinkChecker(_make_opts(ncpu, seeds), docs, [],
                              multi_host=True, use_ray=True,
                              transport_latency_s=CRAWL_LATENCY_MS / 1000.0)
        attempt = checker.check()
        elapsed = time.time() - t0
        if elapsed < drain:
            drain, res = elapsed, attempt
    # cuckoo mode is probabilistic: a false positive silently skips a
    # URL. Budget ~ n × fp_rate (16-bit fingerprints, 4-slot buckets
    # ≈ 1.2e-4) — the exact mode used by the conformance tests is
    # equality-checked instead.
    fp_budget = int(expected_seen * 5e-4) + 4
    assert expected_seen - fp_budget <= res.stats["seen_urls"] <= expected_seen, \
        (res.stats["seen_urls"], expected_seen)
    return {
        "crawl_sec": round(drain, 3),
        "urls_checked": res.stats["urls_checked"],
        "urls_per_sec": round(res.stats["urls_checked"] / drain, 1),
        "rounds": res.stats["rounds"],
        "seen_urls": res.stats["seen_urls"],
        "stage_sec": res.stats["timings"],
    }


def consume(ds) -> int:
    import pandas as pd
    import pyarrow as pa
    if isinstance(ds, (pd.DataFrame,)):
        return len(ds)
    if isinstance(ds, pa.Table):
        return ds.num_rows
    return ds.count()


WARM_SF_DIR = os.environ.get("GRAFT_WARM_SF_DIR", "/root/testdata/sf0.001")


def run_queries() -> dict:
    """Per-query timings, one timed run each AFTER a tiny warm-up pass
    at sf0.001: the first Ray Data stage in a fresh session pays a
    worker-spawn/import storm that measures the interpreter, not the
    operator (same protocol as the crawl warm-up)."""
    from linkinator_ray.pipelines import (components, dedup, events, graph,
                                          joins, linkgraph, profile,
                                          similarity, text, tpch)
    timings = {}
    jobs = {
        "extract_edges": lambda: graph.extract_edges(SF_DIR),
        "crawl_reachability": lambda: graph.crawl_reachability(SF_DIR),
        "doc_stats": lambda: text.doc_stats(SF_DIR),
        "token_count_by_lang": lambda: text.token_count_by_lang(SF_DIR),
        "lang_id": lambda: text.lang_id(SF_DIR),
        "quality_filter": lambda: text.quality_filter(SF_DIR),
        "top_tokens": lambda: text.top_tokens(SF_DIR),
        "bigram_counts": lambda: text.bigram_counts(SF_DIR),
        "dedup_exact": lambda: dedup.dedup_exact(SF_DIR),
        "dedup_minhash": lambda: dedup.dedup_minhash(SF_DIR),
        "corpus_dedup_keep": lambda: dedup.corpus_dedup_keep(SF_DIR),
        "dedup_simhash": lambda: dedup.dedup_simhash(SF_DIR),
        "dedup_embedding_lsh": lambda: dedup.dedup_embedding_lsh(SF_DIR),
        "knn_bruteforce": lambda: similarity.knn_bruteforce(SF_DIR, k=5, num_queries=4),
        "knn_ivf": lambda: similarity.knn_ivf(SF_DIR, k=5, num_queries=4),
        "token_count_bpe": lambda: text.token_count_bpe(SF_DIR),
        "repetition_stats": lambda: text.repetition_stats(SF_DIR),
        "pii_scrub": lambda: text.pii_scrub(SF_DIR),
        "tumbling_window": lambda: events.tumbling_window(SF_DIR),
        "sliding_window": lambda: events.sliding_window(SF_DIR),
        "sessionize": lambda: events.sessionize(SF_DIR),
        "funnel": lambda: events.funnel(SF_DIR),
        "interval_join": lambda: events.interval_join(SF_DIR),
        "user_running_stats": lambda: events.user_running_stats(SF_DIR),
        "daily_active_users": lambda: events.daily_active_users(SF_DIR),
        "retention_cohorts": lambda: events.retention_cohorts(SF_DIR),
        "profile_table": lambda: profile.profile_table(SF_DIR, "lineitem"),
        "prepare_corpus": lambda: text.prepare_corpus(SF_DIR),
        "events_by_segment": lambda: joins.events_by_segment(SF_DIR),
        "events_join_customer": lambda: joins.events_join_customer(SF_DIR),
        "events_asof_order": lambda: joins.events_asof_order(SF_DIR),
        "dedup_chunk": lambda: dedup.dedup_chunk(SF_DIR),
        "dedup_substring": lambda: dedup.dedup_substring(SF_DIR),
        "dedup_components": lambda: components.dedup_components(SF_DIR),
        "contamination_check": lambda: dedup.contamination_check(SF_DIR),
        "sample_by_source": lambda: text.sample_by_source(SF_DIR),
        "stratified_sample": lambda: text.stratified_sample(SF_DIR),
        "top_docs_per_lang": lambda: text.top_docs_per_lang(SF_DIR),
        "global_rank": lambda: text.global_rank(SF_DIR),
        "corpus_diff": lambda: dedup.corpus_diff(SF_DIR),
        "export_tar_roundtrip": lambda: __import__(
            "linkinator_ray.pipelines.export",
            fromlist=["x"]).export_tar_roundtrip(SF_DIR),
        "jsonl_roundtrip": lambda: __import__(
            "linkinator_ray.pipelines.export",
            fromlist=["x"]).jsonl_roundtrip(SF_DIR),
        "pack_sequences": lambda: text.pack_sequences(SF_DIR),
        "shuffle_export": lambda: text.shuffle_export(SF_DIR),
        "train_split": lambda: text.train_split(SF_DIR),
        "length_quantiles": lambda: text.length_quantiles(SF_DIR),
        "shipping_priority": lambda: tpch.shipping_priority(SF_DIR),
        "local_supplier_volume": lambda: tpch.local_supplier_volume(SF_DIR),
        "brand_revenue": lambda: tpch.brand_revenue(SF_DIR),
        "orders_with_returns": lambda: tpch.orders_with_returns(SF_DIR),
        "idle_customers": lambda: tpch.idle_customers(SF_DIR),
        "tfidf_top_terms": lambda: text.tfidf_top_terms(SF_DIR),
        "keyword_search": lambda: text.keyword_search(SF_DIR),
        "bm25_search": lambda: text.bm25_search(SF_DIR),
        "chunk_documents": lambda: text.chunk_documents(SF_DIR),
        "text_normalize": lambda: text.text_normalize(SF_DIR),
        "unigram_logppl": lambda: text.unigram_logppl(SF_DIR),
        "hll_distinct_tokens": lambda: text.hll_distinct_tokens(SF_DIR),
        "cms_token_counts": lambda: text.cms_token_counts(SF_DIR),
        "kmeans_embeddings": lambda: similarity.kmeans_embeddings(
            SF_DIR, k=10, iters=5),
        "semantic_dedup": lambda: similarity.semantic_dedup(
            SF_DIR, k=10, iters=3, threshold=0.95),
        "inverted_index": lambda: __import__(
            "linkinator_ray.pipelines.index",
            fromlist=["x"]).inverted_index(SF_DIR),
        "incremental_dedup": lambda: __import__(
            "linkinator_ray.pipelines.incremental",
            fromlist=["x"]).incremental_dedup(SF_DIR),
        "degree_stats": lambda: linkgraph.degree_stats(SF_DIR),
        "triangle_count": lambda: linkgraph.triangle_count(SF_DIR),
        "pagerank": lambda: linkgraph.pagerank(SF_DIR),
        "pagerank_actors": lambda: linkgraph.pagerank_actors(SF_DIR),
        "hits": lambda: linkgraph.hits(SF_DIR),
        "cocitation_topk": lambda: linkgraph.cocitation_topk(SF_DIR),
        "crawl_depth": lambda: graph.crawl_depth(SF_DIR),
        "anchor_text_stats": lambda: graph.anchor_text_stats(SF_DIR),
        "rollup_orders": lambda: tpch.rollup_orders(SF_DIR),
        "pivot_events": lambda: events.pivot_events(SF_DIR),
        "copurchase_topk": lambda: tpch.copurchase_topk(SF_DIR),
        "daily_top_users": lambda: events.daily_top_users(SF_DIR),
        "vocab_build": lambda: text.vocab_build(SF_DIR),
        "crawl_prepare_corpus": lambda: graph.crawl_prepare_corpus(SF_DIR),
        "broken_link_parents": lambda: graph.broken_link_parents(SF_DIR),
        "media_resize": lambda: __import__(
            "linkinator_ray.pipelines.multimodal",
            fromlist=["x"]).media_resize(SF_DIR),
    }
    if os.path.isdir(WARM_SF_DIR):
        global SF_DIR
        real = SF_DIR
        SF_DIR = WARM_SF_DIR
        for job in jobs.values():
            try:
                consume(job())
            except Exception:
                pass
        SF_DIR = real
    # best-of-N per query (default 2): the sandbox VM shows 3-5x
    # noisy-neighbor swings; the minimum is the engine's capability
    q_repeats = int(os.environ.get("BENCH_QUERY_REPEATS", "2"))
    for name, job in jobs.items():
        best = float("inf")
        for _ in range(q_repeats):
            # crawl results memoize per corpus (crawl_summary derives
            # from the same crawl) — clear so every repeat is a real run
            graph._REACH_CACHE.clear()
            t0 = time.time()
            consume(job())
            best = min(best, time.time() - t0)
        timings[name] = round(best, 3)
    return timings


def build_x10_corpus(src_dir: str) -> str:
    """Deterministic 10× documents corpus under /tmp for the dedup
    scale probe: copy 0 is the source; copies 1-9 re-id rows with a
    +k*10^7 offset and append ~half-a-doc of per-copy unique tokens
    (pushing 3-gram Jaccard vs the source below the 0.7 near-dup
    threshold) UNLESS doc_id % 13 == k — those stay verbatim, planting
    exact/near dup clusters at a realistic ~8% rate. Built once,
    reused."""
    import pyarrow as pa
    import pyarrow.parquet as pq_
    out_dir = os.path.join("/tmp", "linkinator_ray_x10_v2",
                           src_dir.strip("/").replace("/", "_"))
    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    src = pq_.read_table(f"{src_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source",
                                  "n_chars"])
    parts = [src]
    ids = src["doc_id"].to_numpy()
    texts = src["text"].to_pylist()
    n_tok = [max(1, len(t.split()) // 2) for t in texts]
    for k in range(1, 10):
        keep = ids % 13 == k
        new_text = [t if keep[i] else t + "".join(
            f" u{k}q{ids[i]}x{j}" for j in range(n_tok[i]))
                    for i, t in enumerate(texts)]
        parts.append(pa.table({
            "doc_id": pa.array(ids + k * 10_000_000, pa.int64()),
            "text": pa.array(new_text, pa.string()),
            "lang": src["lang"], "source": src["source"],
            "n_chars": src["n_chars"]}))
    pq_.write_table(pa.concat_tables(parts),
                    os.path.join(out_dir, "documents.parquet"),
                    row_group_size=4096)
    open(marker, "w").close()
    return out_dir


def run_dedup_scale() -> dict:
    """Scale probe: corpus_dedup_keep on a 10× sf corpus (sf0.1 → the
    sf1.0-equivalent 500k docs). One timed run (no best-of — this is
    the long-tail probe), with driver peak RSS recorded. The hot-bucket
    count at this scale exceeds the auto threshold, so the run
    exercises the partitioned+distributed (no-driver-state) path."""
    import resource

    import pyarrow.parquet as pq_

    from linkinator_ray.pipelines import dedup
    x10 = build_x10_corpus(SF_DIR)
    n_input = pq_.read_metadata(
        os.path.join(x10, "documents.parquet")).num_rows
    # untimed warm-up at sf0.001 so a fresh session's worker-spawn /
    # import storm isn't billed to the probe (same isdir guard as
    # run_queries — a missing warm dir must not abort the whole bench)
    if os.path.isdir(WARM_SF_DIR):
        from linkinator_ray.pipelines import text as _text
        _text.doc_stats(WARM_SF_DIR).count()
    t0 = time.time()
    res = dedup.corpus_dedup_keep(x10)
    sec = time.time() - t0
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    return {"sec": round(sec, 3), "dropped_docs": len(res),
            "input_docs": int(n_input),
            "driver_rss_gb": round(rss_gb, 2)}


def main() -> None:
    import ray
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    crawl = run_crawl(NCPU)
    queries = run_queries()
    queries["crawl_synthetic"] = crawl["crawl_sec"]
    dedup_scale = None
    if os.environ.get("BENCH_DEDUP_SCALE", "1") != "0":
        # fresh Ray session for the probe, like the separate `ray job`
        # it would be in production: ~160 query executions leave enough
        # object-store/worker state to inflate a trailing measurement
        # ~20-30% (BASELINE.md round-5 controls)
        ray.shutdown()
        ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        dedup_scale = run_dedup_scale()
        queries["corpus_dedup_keep_x10"] = dedup_scale["sec"]
    out = {
        "metric": "synthetic multi-host crawl drain time "
                  f"({crawl['urls_checked']} URLs, {CRAWL_HOSTS} hosts)",
        "value": crawl["crawl_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": SF,
        "num_cpus": NCPU,
        "urls_per_sec": crawl["urls_per_sec"],
        "rounds": crawl["rounds"],
        "seen_urls": crawl["seen_urls"],
    }
    if dedup_scale is not None:
        out["dedup_scale_x10"] = dedup_scale
    ray.shutdown()
    print(json.dumps(out))


def scaling() -> None:
    """The two-parallelism-level criterion, in BOTH regimes, each in
    fresh processes at num_cpus 8 then 32 on the same corpus:

    - wire (50 ms RTT, connection budget ∝ nodes): the realistic
      crawler regime — the mesh's nodes drive the connection pools.
    - compute-only (latency 0, 4× corpus so work dominates fixed
      costs): the coordination-stress regime.
    """
    out = {}
    regimes = {
        "wire": {},
        "compute": {"BENCH_LATENCY_MS": "0",
                    "BENCH_CRAWL_DOCS": os.environ.get(
                        "BENCH_SCALING_COMPUTE_DOCS", "16000"),
                    "BENCH_REPEATS": "2"},
    }
    for regime, extra in regimes.items():
        results = {}
        for ncpu in (8, 32):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), **extra)
            run = subprocess.run(
                [sys.executable, __file__, "--crawl-only"], env=env,
                capture_output=True, text=True, check=True).stdout
            results[ncpu] = json.loads(run.strip().splitlines()[-1])
        t8 = results[8]["urls_per_sec"]
        t32 = results[32]["urls_per_sec"]
        out[regime] = {
            "urls_per_sec_8": t8, "urls_per_sec_32": t32,
            "crawl_sec_8": results[8]["crawl_sec"],
            "crawl_sec_32": results[32]["crawl_sec"],
            "scaling_efficiency": round((t32 / t8) / (32 / 8), 3),
        }
    out["scaling_efficiency"] = out["wire"]["scaling_efficiency"]
    print(json.dumps(out))


def crawl_only() -> None:
    import ray
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    out = run_crawl(NCPU)
    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--crawl-only" in sys.argv:
        crawl_only()
    else:
        main()
