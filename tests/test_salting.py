"""Explicit hot-host salting in the sticky fetch dispatch.

The north_rule requires skew handled explicitly: one mega-host must not
serialize a whole partition behind a single fetch actor. A host past
``host_salt_threshold`` frontier rows splits into ceil(n/threshold)
salted sub-keys (by url_hash), capped at the actor count. Politeness
(429 deadlines + token bucket) gates at ADMISSION on the driver, so
spreading a host across actors never violates it; scripted response
sequences are the one case that needs a serial per-host stream, and
they disable salting.
"""

import numpy as np

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker


def _uh(n: int) -> np.ndarray:
    return (np.arange(n, dtype=np.uint64)
            * np.uint64(0x9E3779B97F4A7C15))


def test_hot_host_spreads_cold_host_stays():
    from linkinator_ray.stages.fetch import sticky_assignment
    hosts = ["hot.test"] * 1000 + ["cold.test"] * 10
    a = sticky_assignment(hosts, _uh(1010), 8, salt_threshold=256)
    # ceil(1000/256) = 4 salted sub-keys, all distinct mod 8
    assert len(set(a[:1000].tolist())) == 4
    assert len(set(a[1000:].tolist())) == 1


def test_scripted_and_disabled_never_salt():
    from linkinator_ray.stages.fetch import sticky_assignment
    hosts = ["hot.test"] * 1000
    scripted = sticky_assignment(hosts, _uh(1000), 8, scripted=True,
                                 salt_threshold=256)
    off = sticky_assignment(hosts, _uh(1000), 8, salt_threshold=0)
    assert len(set(scripted.tolist())) == 1
    assert len(set(off.tolist())) == 1


def test_assignment_deterministic():
    from linkinator_ray.stages.fetch import sticky_assignment
    hosts = ["a"] * 400 + ["b"] * 10 + ["c"] * 300
    one = sticky_assignment(hosts, _uh(710), 6, salt_threshold=128)
    two = sticky_assignment(hosts, _uh(710), 6, salt_threshold=128)
    assert (one == two).all()


def _crawl(docs, seeds, threshold: int, spy_spread=None, **extra):
    opts = CheckOptions(paths=seeds, recurse=True, retry=True,
                        fetch_concurrency=4, seen_shards=2,
                        host_salt_threshold=threshold, **extra)
    res = LinkChecker(opts, docs, [], multi_host=True, use_ray=True).check()
    return {(r["url"], r["state"], r["status"])
            for r in res.results.to_pylist()}, res.stats["seen_urls"]


def test_salted_crawl_equals_unsalted(ray_session, monkeypatch):
    """E2E over a Zipf-skewed multi-host corpus with retry=True (the
    config that forces sticky dispatch): a tiny salt threshold must
    actually spread the hot host across >1 actor AND leave the final
    result/seen sets identical to the unsalted run."""
    import linkinator_ray.stages.fetch as fmod
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, expected_seen, _ = synth_crawl_corpus(
        num_hosts=3, docs_per_host=300, zipf=2.5)

    spread: list[int] = []
    orig = fmod.sticky_assignment

    def spy(hosts, uh, k, **kw):
        out = orig(hosts, uh, k, **kw)
        per: dict = {}
        for h, a in zip(hosts, out.tolist()):
            per.setdefault(h, set()).add(a)
        if per:
            spread.append(max(len(s) for s in per.values()))
        return out

    monkeypatch.setattr(fmod, "sticky_assignment", spy)
    salted, seen_salted = _crawl(docs, seeds, threshold=16)
    assert max(spread) > 1, "hot host never spread across actors"

    monkeypatch.setattr(fmod, "sticky_assignment", orig)
    plain, seen_plain = _crawl(docs, seeds, threshold=0)
    assert salted == plain
    assert seen_salted == seen_plain == expected_seen


def test_salted_pipelined_equals_round(ray_session):
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, expected_seen, _ = synth_crawl_corpus(
        num_hosts=2, docs_per_host=250, zipf=2.0)
    piped, seen_p = _crawl(docs, seeds, threshold=16, pipelined=True,
                           batch_size=64)
    rounds, seen_r = _crawl(docs, seeds, threshold=16)
    assert piped == rounds
    assert seen_p == seen_r == expected_seen
