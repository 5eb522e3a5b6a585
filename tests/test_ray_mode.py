"""Distributed-mode crawl: Ray actor seen-set shards + fetch actor pool
must produce the same final sets as local mode."""

import pyarrow.compute as pc

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx


def key_set(res):
    return {(r["url"], r["state"], r["status"], r["parent"])
            for r in res.results.to_pylist()}


def test_ray_mode_matches_local(ray_session):
    """Every fixture gives the local rounds result on Ray rounds and
    on the mesh. The executor loop is outermost so that each executor's
    leased actors serve all fixtures in a row."""
    fixtures = {name: builder() for name, builder in fx.ALL.items()}

    def run(fixture, use_ray, **mode):
        opts = CheckOptions(paths=fixture.seeds, **fixture.options,
                            fetch_concurrency=2, seen_shards=2, **mode)
        return LinkChecker(opts, fixture.documents, fixture.http_map,
                           use_ray=use_ray).check()

    local = {name: run(f, False) for name, f in fixtures.items()}
    mismatches = []
    for executor, mode in (("rounds", {}), ("mesh", {"mesh": True})):
        for name, fixture in fixtures.items():
            res = run(fixture, True, **mode)
            assert res.stats["executor"] == executor
            if key_set(res) != key_set(local[name]) \
                    or res.passed != local[name].passed:
                mismatches.append((executor, mode, name))
    assert not mismatches


def test_ray_mode_retry(ray_session):
    fixture = fx.retry_fixture()
    opts = CheckOptions(paths=fixture.seeds, **fixture.options,
                        fetch_concurrency=2)
    res = LinkChecker(opts, fixture.documents, fixture.http_map,
                      use_ray=True).check()
    assert res.passed
    # host-sticky routing keeps the 429→200 sequence deterministic
    one = [c for c in res.call_log if c[0] == "http://slow.invalid/1"]
    assert [c[2] for c in one] == [429, 200]


def test_pipelined_matches_rounds(ray_session):
    """Continuous-queue execution produces the same final sets as the
    round-based mode."""
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, expected_seen, _ = synth_crawl_corpus(num_hosts=3,
                                                       docs_per_host=120)
    base = dict(paths=seeds, recurse=True, fetch_concurrency=3, seen_shards=2)
    rounds = LinkChecker(CheckOptions(**base), docs, [], multi_host=True,
                         use_ray=True).check()
    piped = LinkChecker(CheckOptions(**base, pipelined=True), docs, [],
                        multi_host=True, use_ray=True).check()
    assert rounds.stats["seen_urls"] == piped.stats["seen_urls"] == expected_seen
    # the contract (SURVEY.md §2.6): per-URL state/status + BROKEN edges;
    # the parent recorded for an OK row is discovery-order dependent in
    # the reference too
    def contract(res):
        rows = res.results.to_pylist()
        return ({(r["url"], r["state"], r["status"]) for r in rows},
                {(r["url"], r["parent"]) for r in rows if r["state"] == "BROKEN"})
    assert contract(rounds) == contract(piped)
    assert rounds.passed == piped.passed


def test_pipelined_fixture_parity(ray_session):
    for builder in (fx.recurse, fx.repeated_broken_link):
        fixture = builder()
        opts = dict(fixture.options, fetch_concurrency=2, seen_shards=2)
        rounds = LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                             fixture.documents, fixture.http_map,
                             use_ray=True).check()
        piped = LinkChecker(CheckOptions(paths=fixture.seeds, **opts,
                                         pipelined=True),
                            fixture.documents, fixture.http_map,
                            use_ray=True).check()
        assert piped.stats["executor"] == "mesh"  # pipelined is an alias
        assert key_set(rounds) == key_set(piped), fixture.name


class TestMeshMode:
    def test_mesh_equals_rounds(self, ray_session):
        """Mesh execution produces the identical result/seen sets as the
        conformance round mode (SURVEY.md §2.6 contract)."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=3, docs_per_host=200)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2,
                    seen_shards=2)
        rounds = LinkChecker(CheckOptions(**base), docs, [],
                             multi_host=True, use_ray=True).check()
        mesh = LinkChecker(CheckOptions(**base, mesh=True), docs, [],
                           multi_host=True, use_ray=True).check()

        # the §2.6 contract: URL/state/status sets and the per-
        # (url, parent) BROKEN edge set — OK-parent attribution is
        # discovery-order dependent (as in the reference)
        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}

        def broken_edges(res):
            return {(r["url"], r["parent"])
                    for r in res.results.to_pylist() if r["state"] == "BROKEN"}
        assert key(rounds) == key(mesh)
        assert broken_edges(rounds) == broken_edges(mesh)
        assert rounds.stats["seen_urls"] == mesh.stats["seen_urls"] \
            == expected_seen
        assert rounds.passed == mesh.passed

    def test_mesh_node_load_in_stats(self, ray_session):
        """stats["mesh"] gives each node's busy seconds and pump count
        from the driver's final poll; the pumps add up to the rounds."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, _, _ = synth_crawl_corpus(num_hosts=3,
                                               docs_per_host=150)
        res = LinkChecker(
            CheckOptions(paths=seeds, recurse=True, fetch_concurrency=3,
                         mesh=True),
            docs, [], multi_host=True, use_ray=True).check()
        assert res.stats["executor"] == "mesh"
        load = res.stats["mesh"]
        assert len(load["busy_sec"]) == len(load["pumps"]) == 3
        assert all(busy > 0 for busy in load["busy_sec"])
        assert sum(load["pumps"]) == res.stats["rounds"]

    def test_mesh_skip_rules_and_dup_broken(self, ray_session):
        """Mesh honors skip rules and the duplicate-broken re-report
        join (J1) — equality vs round mode on a fixture with repeated
        broken edges and a skip pattern."""
        from linkinator_ray.sources import fixtures as fx
        fixture = fx.repeated_broken_link()
        opts = dict(fixture.options, links_to_skip=["skipme"])
        rounds = LinkChecker(
            CheckOptions(paths=fixture.seeds, **opts),
            fixture.documents, fixture.http_map).check()
        mesh = LinkChecker(
            CheckOptions(paths=fixture.seeds, **opts, mesh=True),
            fixture.documents, fixture.http_map, use_ray=True).check()

        def key(res):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in res.results.to_pylist()}
        assert key(rounds) == key(mesh)
        assert rounds.passed == mesh.passed

    def test_mesh_frontier_spill_equality(self, ray_session):
        """An artificially tiny per-node frontier cap forces constant
        queue spill/reload through the parquet parts; the final sets
        must equal the unbounded-queue mesh run (the 10^10-URL memory
        bound must not change semantics)."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=3, docs_per_host=150)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2,
                    mesh=True)
        nocap = LinkChecker(CheckOptions(**base), docs, [],
                            multi_host=True, use_ray=True).check()
        capped = LinkChecker(
            CheckOptions(**base, mesh_frontier_spill_rows=16, batch_size=32),
            docs, [], multi_host=True, use_ray=True).check()

        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}
        assert key(nocap) == key(capped)
        assert nocap.stats["seen_urls"] == capped.stats["seen_urls"] \
            == expected_seen
        # the cap actually engaged (tiny vs ~450 URLs/host spread)
        assert capped.stats.get("frontier_spilled_rows", 0) > 0

    def test_mesh_back_to_back_no_actor_leak(self, ray_session):
        """Two consecutive mesh crawls in one session must not block on
        leaked actor resources (peer-handle cycles are explicitly
        killed)."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=100)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=3,
                    mesh=True)
        r1 = LinkChecker(CheckOptions(**base), docs, [], multi_host=True,
                         use_ray=True).check()
        r2 = LinkChecker(CheckOptions(**base), docs, [], multi_host=True,
                         use_ray=True).check()
        assert r1.stats["seen_urls"] == r2.stats["seen_urls"] == expected_seen
