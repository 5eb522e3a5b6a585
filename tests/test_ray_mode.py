"""Ray-mode crawl: every ``use_ray=True`` check runs the actor mesh,
which must produce the same final sets as the Ray-free local rounds."""

from collections import Counter

import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx


def key_set(res):
    return {(r["url"], r["state"], r["status"], r["parent"])
            for r in res.results.to_pylist()}


def test_ray_mode_matches_local(ray_session):
    """Every fixture gives the local rounds result on the mesh, which is
    what ``use_ray=True`` runs. The mesh's leased nodes serve all
    fixtures in a row."""
    mismatches = []
    for name, builder in fx.ALL.items():
        fixture = builder()
        opts = CheckOptions(paths=fixture.seeds, **fixture.options,
                            fetch_concurrency=2, seen_shards=2)
        local = LinkChecker(opts, fixture.documents,
                            fixture.http_map).check()
        res = LinkChecker(opts, fixture.documents, fixture.http_map,
                          use_ray=True).check()
        assert res.stats["executor"] == "mesh"
        if key_set(res) != key_set(local) or res.passed != local.passed:
            mismatches.append(name)
    assert not mismatches


def test_ray_mode_refuses_max_rounds():
    """The mesh has no rounds to cap: a Ray check with ``max_rounds``
    below its default raises before it leases anything, instead of
    silently crawling to the end."""
    fixture = fx.recurse()
    opts = CheckOptions(paths=fixture.seeds, max_rounds=2, **fixture.options)
    with pytest.raises(ValueError, match="max_rounds"):
        LinkChecker(opts, fixture.documents, fixture.http_map,
                    use_ray=True).check()
    # local rounds honour the cap
    capped = LinkChecker(opts, fixture.documents, fixture.http_map).check()
    assert capped.stats["rounds"] == 2


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
    """Continuous-queue execution (``pipelined`` is an inert option; Ray
    runs the mesh) produces the same final sets as local rounds."""
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, expected_seen, _ = synth_crawl_corpus(num_hosts=3,
                                                       docs_per_host=120)
    base = dict(paths=seeds, recurse=True, fetch_concurrency=3, seen_shards=2)
    rounds = LinkChecker(CheckOptions(**base), docs, [],
                         multi_host=True).check()
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
                             fixture.documents, fixture.http_map).check()
        piped = LinkChecker(CheckOptions(paths=fixture.seeds, **opts,
                                         pipelined=True),
                            fixture.documents, fixture.http_map,
                            use_ray=True).check()
        assert piped.stats["executor"] == "mesh"
        assert key_set(rounds) == key_set(piped), fixture.name


class TestMeshMode:
    def test_mesh_equals_rounds(self, ray_session):
        """Mesh execution produces the identical result/seen sets as the
        conformance round mode (SURVEY.md §2.6 contract): on a balanced
        corpus, and on a Zipf-skewed one with ``retry`` on, where the
        mesh routes each host to one node."""
        from linkinator_ray.sources.synth import synth_crawl_corpus

        # the §2.6 contract: URL/state/status sets and the per-
        # (url, parent) BROKEN edge set — OK-parent attribution is
        # discovery-order dependent (as in the reference)
        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}

        def broken_edges(res):
            return {(r["url"], r["parent"])
                    for r in res.results.to_pylist() if r["state"] == "BROKEN"}
        for corpus, extra in (({"num_hosts": 3, "docs_per_host": 200}, {}),
                              ({"num_hosts": 3, "docs_per_host": 300,
                                "zipf": 2.5}, {"retry": True})):
            docs, seeds, expected_seen, _ = synth_crawl_corpus(**corpus)
            opts = CheckOptions(paths=seeds, recurse=True,
                                fetch_concurrency=2, seen_shards=2, **extra)
            rounds = LinkChecker(opts, docs, [], multi_host=True).check()
            mesh = LinkChecker(opts, docs, [], multi_host=True,
                               use_ray=True).check()
            assert key(rounds) == key(mesh), corpus
            assert broken_edges(rounds) == broken_edges(mesh), corpus
            assert rounds.stats["seen_urls"] == mesh.stats["seen_urls"] \
                == expected_seen
            assert rounds.passed == mesh.passed

    def test_mesh_node_load_in_stats(self, ray_session):
        """stats["mesh"] gives each node's busy seconds, pump count and
        peer candidate messages (rows sent and received, wire bytes
        sent) from the driver's final poll; the pumps add up to the
        rounds, and every candidate row sent was received."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, _, _ = synth_crawl_corpus(num_hosts=3,
                                               docs_per_host=150)
        res = LinkChecker(
            CheckOptions(paths=seeds, recurse=True, fetch_concurrency=3),
            docs, [], multi_host=True, use_ray=True).check()
        assert res.stats["executor"] == "mesh"
        load = res.stats["mesh"]
        assert set(load) == {"busy_sec", "pumps", "cand_rows_sent",
                             "cand_rows_received", "cand_bytes_sent",
                             "messages_received", "polls"}
        assert all(len(per_node) == 3 for per_node in load.values())
        assert all(busy > 0 for busy in load["busy_sec"])
        assert all(polls > 0 for polls in load["polls"])
        assert sum(load["pumps"]) == res.stats["rounds"]
        sent = sum(load["cand_rows_sent"])
        assert sent > 0 and sent == sum(load["cand_rows_received"])
        assert all((rows > 0) == (size > 0) for rows, size in
                   zip(load["cand_rows_sent"], load["cand_bytes_sent"]))

    def test_mesh_polls_follow_news(self, ray_session):
        """The driver hears from a node when the node has news, not on a
        timer: with 50 ms of wire latency a pump takes at least 50 ms,
        and each node's poll answers number at most its pumps (results
        or turning idle) plus the peer messages it received plus 3 (its
        first answer, its last turn to idle and the confirming round)."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=60)
        res = LinkChecker(
            CheckOptions(paths=seeds, recurse=True, fetch_concurrency=2),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.05).check()
        assert res.stats["seen_urls"] == expected_seen
        load = res.stats["mesh"]
        for polls, pumps, messages in zip(load["polls"], load["pumps"],
                                          load["messages_received"]):
            assert 0 < polls <= pumps + messages + 3, load

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
            CheckOptions(paths=fixture.seeds, **opts),
            fixture.documents, fixture.http_map, use_ray=True).check()

        def key(res):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in res.results.to_pylist()}
        assert key(rounds) == key(mesh)
        assert rounds.passed == mesh.passed

    def test_mesh_dup_broken_rows_match_local(self, ray_session):
        """The duplicate-broken join's re-report rows (BROKEN
        ``(url, parent)`` rows, counted as a multiset) are the same on
        the mesh as in local rounds: a doubled dup edge would double a
        re-report, which set comparisons cannot see."""
        import pyarrow as pa

        from linkinator_ray import schema
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, _, _ = synth_crawl_corpus(num_hosts=2,
                                               docs_per_host=150)
        # synth's own broken links have one parent each: every page
        # also links one of seven missing pages of its host
        rows = docs.to_pylist()
        for j, row in enumerate(rows):
            row["spans"].append({"kind": "anchor", "text": "",
                                 "media_ref": f"/gone{j % 7}.html",
                                 "offset": 10 * len(row["spans"])})
        docs = pa.Table.from_pylist(rows, schema=schema.DOCUMENTS)
        fixture = fx.repeated_broken_link()
        cases = {fixture.name: (fixture.seeds, fixture.documents,
                                fixture.http_map, fixture.options, False),
                 "synth": (seeds, docs, [], {"recurse": True}, True)}

        def broken_rows(res):
            return Counter((r["url"], r["parent"])
                           for r in res.results.to_pylist()
                           if r["state"] == "BROKEN")
        for name, (paths, documents, http_map, options, multi) in \
                cases.items():
            opts = CheckOptions(paths=paths, fetch_concurrency=2, **options)
            local = LinkChecker(opts, documents, http_map,
                                multi_host=multi).check()
            mesh = LinkChecker(opts, documents, http_map, multi_host=multi,
                               use_ray=True).check()
            rows = broken_rows(local)
            assert sum(rows.values()) > len(set(k[0] for k in rows)), name
            assert broken_rows(mesh) == rows, name

    def test_mesh_frontier_spill_equality(self, ray_session):
        """An artificially tiny per-node frontier cap forces constant
        queue spill/reload through the parquet parts; the final sets
        must equal the unbounded-queue mesh run (the 10^10-URL memory
        bound must not change semantics)."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=3, docs_per_host=150)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2)
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
        base = dict(paths=seeds, recurse=True, fetch_concurrency=3)
        r1 = LinkChecker(CheckOptions(**base), docs, [], multi_host=True,
                         use_ray=True).check()
        r2 = LinkChecker(CheckOptions(**base), docs, [], multi_host=True,
                         use_ray=True).check()
        assert r1.stats["seen_urls"] == r2.stats["seen_urls"] == expected_seen


def test_mesh_stall_message_names_stalled_nodes():
    """The 60 s stall errors name only the nodes that hold work or take
    part in an unbalanced message kind, with their counters (Ray-free,
    on fake ``MeshNode.poll`` answers)."""
    from linkinator_ray.pipelines.crawl import mesh_stall_message

    def poll(**kw):
        return dict({"queued_rows": 0, "held_cand": 0,
                     "pump_scheduled": False, "sent_cand": 0,
                     "received_cand": 0, "sent_wants": 0,
                     "received_wants": 0, "sent_frontier": 0,
                     "received_frontier": 0}, **kw)

    # node 0 sent 5 candidates node 2 never received; node 1 is idle
    # and balanced; node 3 holds queued rows and a pump
    polls = [poll(sent_cand=5, received_frontier=1),
             poll(received_frontier=1),
             poll(),
             poll(queued_rows=7, pump_scheduled=True)]
    msg = mesh_stall_message("mesh", polls, seed_rows=2)
    assert msg.splitlines()[0] == (
        "mesh stalled 60s; unbalanced: candidates sent 5 received 0")
    assert "node 0: candidates sent 5 received 0" in msg
    assert "node 3: queued rows 7, pump scheduled" in msg
    assert "node 1" not in msg and "node 2" not in msg
    assert "frontier" not in msg  # the two seed rows balance

    held = mesh_stall_message(
        "mesh checkpoint settle", [poll(held_cand=3), poll()], seed_rows=0)
    assert held.splitlines() == ["mesh checkpoint settle stalled 60s",
                                 "  node 0: held sends 3"]
    idle = mesh_stall_message("mesh", [poll()], seed_rows=0)
    assert idle.splitlines()[1] == "  no node reports pending work"


def test_mesh_quiescent_rule():
    """The mesh's end test (Ray-free, on hand-built ``MeshNode.poll``
    answers) never ends early: not with a message in flight between two
    stale rounds, not when an idle node's counters moved (a dup-only
    message, no pump), not with deferred rows; and it ends on two
    consistent idle rounds. Paused, queued rows are allowed."""
    from linkinator_ray.pipelines.crawl import mesh_quiescent

    def poll(**kw):
        return dict({"queued_rows": 0, "held_cand": 0, "deferred_rows": 0,
                     "pump_scheduled": False, "sent_cand": 0,
                     "received_cand": 0, "sent_wants": 0,
                     "received_wants": 0, "sent_frontier": 0,
                     "received_frontier": 1}, **kw)

    # node 0 sent 5 candidates that node 1 has not received, in both
    # rounds: both idle and unchanged, but unbalanced
    stale = [poll(sent_cand=5), poll()]
    assert not mesh_quiescent(stale, stale, seed_rows=2)
    assert not mesh_quiescent(stale, [poll(sent_cand=5), poll()], 2)
    # node 1 took them, found only dups and stayed idle: balanced now,
    # but its counters moved since the last round
    moved = [poll(sent_cand=5), poll(received_cand=5)]
    assert not mesh_quiescent(stale, moved, seed_rows=2)
    # a deferred row waits on node 0, in either round
    deferred = [poll(sent_cand=5, deferred_rows=1), poll(received_cand=5)]
    assert not mesh_quiescent(moved, deferred, seed_rows=2)
    assert not mesh_quiescent(deferred, moved, seed_rows=2)
    # a pump scheduled, queued rows or held sends in the second round
    for busy in ({"pump_scheduled": True}, {"queued_rows": 3},
                 {"held_cand": 2}):
        assert not mesh_quiescent(moved, [poll(sent_cand=5, **busy),
                                          poll(received_cand=5)], 2), busy
    # two consistent idle rounds end the check
    again = [poll(sent_cand=5), poll(received_cand=5)]
    assert mesh_quiescent(moved, again, seed_rows=2)
    assert not mesh_quiescent(moved, again, seed_rows=3)
    # a paused mesh settles with its queues
    paused = [poll(sent_cand=5, queued_rows=4), poll(received_cand=5)]
    assert mesh_quiescent(paused, paused, seed_rows=2, paused=True)
    assert not mesh_quiescent(paused, paused, seed_rows=2)


def test_mesh_settle_compares_the_confirming_round(monkeypatch):
    """The driver's settle loop (``_MeshPolls.settle``, Ray-free on stub
    nodes) holds the confirming round to the round before it: the
    waiting answers look like the end, but the confirming answers have
    moved counters (node 0 sent 3 more candidates, dups that node 1
    took while idle), balanced mesh-wide, so the loop confirms again and
    ends only on the round after, whose counters equal the last ones
    seen. The same holds paused."""
    import types

    import ray

    from linkinator_ray.pipelines.crawl import _MeshPolls

    class Ref:
        def __init__(self, answer):
            self.answer = answer  # None: a waiting poll with no news

    def answer(n, **kw):
        return dict({"answer": n, "queued_rows": 0, "held_cand": 0,
                     "deferred_rows": 0, "pump_scheduled": False,
                     "sent_cand": 0, "received_cand": 0, "sent_wants": 0,
                     "received_wants": 0, "sent_frontier": 0,
                     "received_frontier": 1, "counters": {"rounds": 1}}, **kw)

    def node(waiting, immediate):
        waiting, immediate = list(waiting), list(immediate)

        def poll(generation, wait, broken=None):
            if wait:
                return Ref(waiting.pop(0) if waiting else None)
            return Ref(immediate.pop(0))
        return types.SimpleNamespace(
            poll=types.SimpleNamespace(remote=poll),
            kick=types.SimpleNamespace(remote=lambda generation: None))

    def wait(refs, num_returns, timeout):
        ready = [r for r in refs if r.answer is not None][:num_returns]
        return ready, [r for r in refs if r not in ready]

    monkeypatch.setattr(ray, "wait", wait)
    monkeypatch.setattr(ray, "get", lambda refs: [r.answer for r in refs])
    for paused in (False, True):
        nodes = [node([answer(1, sent_cand=5)],
                      [answer(2, sent_cand=8), answer(3, sent_cand=8)]),
                 node([answer(1, received_cand=5)],
                      [answer(2, received_cand=8),
                       answer(3, received_cand=8)])]
        taken = []
        polls = _MeshPolls(nodes, generation=1, on_answer=taken.append)
        confirm = polls.settle(seed_rows=2, paused=paused)
        assert [p["answer"] for p in confirm] == [3, 3], paused
        assert polls.count == [3, 3] and len(taken) == 6


def test_mesh_orders_one_urls_scripted_requests(ray_session):
    """A scripted URL's requests reach it in order on the mesh, as in
    local rounds: one page links to 8 URLs that each 301 to one
    scripted URL whose responses alternate 500/200. With wire latency
    and several connections per node, a node whose connection threads
    took that URL's sequence out of order reported another status
    multiset than local rounds; nodes now take local rounds'
    one-connection rule."""
    target = "http://corpus.test/target"
    sources = [f"http://corpus.test/r{i}" for i in range(8)]
    docs = fx.docs_table(fx.doc("index.html",
                                *(fx._anchor(u) for u in sources)))
    http_map = [fx.http(u, 301, headers={"location": target})
                for u in sources]
    http_map += [fx.http(target, 500 if seq % 2 == 0 else 200, seq=seq)
                 for seq in range(64)]
    opts = CheckOptions(paths=["http://corpus.test/"], concurrency=16,
                        fetch_concurrency=1)

    def outcome(use_ray):
        res = LinkChecker(opts, docs, http_map, use_ray=use_ray,
                          transport_latency_s=0.01).check()
        return Counter((r["url"], r["status"])
                       for r in res.results.to_pylist())

    local = outcome(False)
    assert len(local) > 1
    for _ in range(3):
        assert outcome(True) == local
