"""Warm crawl actors (state/actors.py): checks in one Ray session lease
their mesh nodes from a per-session pool.
A leased actor must behave exactly like a fresh one, idle actors must
hold no CPU, and only a cleanly finished check may hand actors back."""

import dataclasses
import gc
import time

import pyarrow as pa
import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.state import actors

# the options of the checks in a row. Every Ray check runs the mesh
# (``mesh`` and ``pipelined`` are inert), so each leg must lease the
# same nodes check after check; the pipelined leg alternates options
EXECUTORS = {"rounds": ({},), "pipelined": ({"pipelined": True},
                                            {"mesh": True}),
             "mesh": ({"mesh": True},)}
SEQUENCE = (fx.recurse, fx.repeated_broken_link, fx.css_fixture)


def key_set(res):
    return {(r["url"], r["state"], r["status"], r["parent"])
            for r in res.results.to_pylist()}


def checker(fixture, use_ray=True, **extra):
    opts = CheckOptions(paths=fixture.seeds, **fixture.options,
                        fetch_concurrency=2, seen_shards=2, **extra)
    return LinkChecker(opts, fixture.documents, fixture.http_map,
                       use_ray=use_ray)


def pids(c: LinkChecker) -> set[int]:
    return {pid for lease in c._leases for pid in lease.pids}


def assert_cpus_free(ray):
    """Idle pooled actors hold no CPU: every session CPU becomes
    available and a plain task runs. The resource view trails a finished
    task's lease return, so it is polled, with a deadline."""
    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + 30
    while ray.available_resources().get("CPU") != total:
        assert time.monotonic() < deadline, ray.available_resources()
        time.sleep(0.1)
    assert ray.get(ray.remote(lambda: 7).remote(), timeout=60) == 7


def assert_timings_booked(res, wall: float):
    """``stats["timings"]`` books every stage, the end-of-check tail
    ("finish") included, and the stages never add up to more than the
    check's wall time (each is rounded to the microsecond)."""
    timings = res.stats["timings"]
    assert set(timings) == {"spawn", "skip", "fetch", "process", "finish"}
    assert min(timings.values()) >= 0
    assert sum(timings.values()) <= wall + 0.0005 * len(timings), \
        (timings, wall)


def wait_dead(ray, handle):
    """Block until a killed actor is gone: ``ray.kill`` returns before
    the actor exits. ``release(0)`` is a no-op on a live shell."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            ray.get(handle.release.remote(0), timeout=60)
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.05)
    raise AssertionError("a killed actor still answers")


@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_back_to_back_checks_reuse_actors(ray_session, executor):
    """recurse → repeated_broken_link → css in one session: every check
    equals local mode, and the later ones run on the same worker
    processes as the first."""
    ray = ray_session
    modes = EXECUTORS[executor]
    previous = None
    for i, builder in enumerate(SEQUENCE):
        fixture = builder()
        local = checker(fixture, use_ray=False).check()
        c = checker(fixture, **modes[i % len(modes)])
        t0 = time.perf_counter()
        res = c.check()
        wall = time.perf_counter() - t0
        assert key_set(res) == key_set(local), fixture.name
        assert res.passed == local.passed
        assert res.stats["executor"] == "mesh"
        assert_timings_booked(res, wall)
        if i:
            assert res.stats["actors"] == {
                "spawned": 0, "reused": len(previous)}, fixture.name
            assert pids(c) == previous, fixture.name
        previous = pids(c)
        assert actors.idle_count() == len(previous)
        assert_cpus_free(ray)


def test_local_mode_books_no_actors():
    fixture = fx.recurse()
    t0 = time.perf_counter()
    res = checker(fixture, use_ray=False).check()
    wall = time.perf_counter() - t0
    assert res.stats["actors"] == {"spawned": 0, "reused": 0}
    assert res.stats["executor"] == "rounds"
    assert_timings_booked(res, wall)


def test_killed_idle_actor_is_replaced(ray_session):
    """An idle actor that died between checks is replaced at lease, and
    the result does not change."""
    ray = ray_session
    fixture = fx.css_fixture()
    first = checker(fixture, pipelined=True)
    want = key_set(first.check())
    victim = first._leases[-1].handles[0]
    ray.kill(victim, no_restart=True)
    wait_dead(ray, victim)
    second = checker(fixture, pipelined=True)
    res = second.check()
    assert key_set(res) == want
    assert res.stats["actors"]["spawned"] == 1
    assert res.stats["actors"]["reused"] == len(pids(first)) - 1
    assert victim not in [h for lease in second._leases
                          for h in lease.handles]
    assert_cpus_free(ray)


def test_failed_mesh_check_releases_nothing(ray_session):
    """A mesh check interrupted mid-crawl kills its nodes: none goes
    back to the pool, and the next check spawns fresh ones and is
    correct."""
    ray = ray_session
    fixture = fx.repeated_broken_link()
    want = key_set(checker(fixture, mesh=True).check())
    assert actors.idle_count() == 2

    failing = checker(fixture, mesh=True)

    def interrupt(table):
        raise KeyboardInterrupt
    failing._emit = interrupt
    with pytest.raises(KeyboardInterrupt):
        failing.check()
    assert actors.idle_count() == 0
    for handle in failing._leases[0].handles:
        wait_dead(ray, handle)

    again = checker(fixture, mesh=True)
    res = again.check()
    assert key_set(res) == want
    assert res.stats["actors"] == {"spawned": 2, "reused": 0}
    assert_cpus_free(ray)


def test_check_after_session_restart(ray_session):
    """``ray.shutdown()`` ends the pool with its session; the next
    session's check spawns fresh actors and is correct."""
    ray = ray_session
    fixture = fx.recurse()
    want = key_set(checker(fixture).check())
    assert actors.idle_count() > 0
    ray.shutdown()
    # the same arguments as the conftest session, for the tests after
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    assert actors.idle_count() == 0
    res = checker(fixture).check()
    assert key_set(res) == want
    assert res.stats["actors"]["reused"] == 0
    assert_cpus_free(ray)


def test_mesh_start_rides_in_the_lease(ray_session, monkeypatch):
    """A mesh check starts with its lease resets, which carry each
    node's seeds, and one ``connect`` per node: the driver sends its
    nodes no ``seed``, ``set_peers`` or ``enqueue`` call."""
    import ray.actor
    calls = []
    remote = ray.actor.ActorMethod.remote

    def recording(self, *args, **kwargs):
        calls.append(self._method_name)
        return remote(self, *args, **kwargs)
    monkeypatch.setattr(ray.actor.ActorMethod, "remote", recording)
    fixture = fx.recurse()
    res = checker(fixture).check()
    assert key_set(res) == key_set(checker(fixture, use_ray=False).check())
    assert calls.count("reset") == calls.count("connect") == 2
    assert not {"seed", "set_peers", "enqueue"} & set(calls)


def test_one_corpus_put_per_session(ray_session, monkeypatch):
    """Two checks of one documents table in a session put the corpus
    once, and agree with each other and with local rounds; a new table
    of equal content is put again. Once the table is collected, the
    session holds no corpus. The session's CPUs are read once."""
    ray = ray_session
    puts, reads = [], []
    put, resources = ray.put, ray.cluster_resources

    def counting(value, *args, **kwargs):
        puts.append(value)
        return put(value, *args, **kwargs)

    def reading():
        reads.append(1)
        return resources()
    monkeypatch.setattr(ray, "put", counting)
    monkeypatch.setattr(ray, "cluster_resources", reading)
    monkeypatch.setattr(actors, "_cpus", {})
    fixture = fx.repeated_broken_link()
    want = key_set(checker(fixture, use_ray=False).check())
    first = checker(fixture).check()
    second = checker(fixture).check()
    assert len(puts) == 1 and set(puts[0]) == {
        "documents", "corpus_index", "corpus_host", "multi_host"}
    assert key_set(first) == key_set(second) == want
    assert first.passed == second.passed is False

    fixture = dataclasses.replace(fixture, documents=pa.Table.from_batches(
        fixture.documents.to_batches()))
    assert key_set(checker(fixture).check()) == want
    assert len(puts) == 2 and len(reads) == 1

    del fixture
    gc.collect()
    assert actors._corpus is None


def test_checkers_of_one_table_share_its_index():
    """Two checkers of one documents table share its index arrays
    (Ray-free), and nothing else: the markdown auto-detect of one
    (``_expand_paths`` sets ``corpus.markdown``) does not reach the
    other, whose check equals one on a table of its own."""
    fixture = fx.markdown()
    docs = fixture.documents

    def build(paths, documents):
        return LinkChecker(CheckOptions(paths=paths), documents,
                           fixture.http_map, use_ray=False)
    md = build(["markdown/README.md"], docs)
    plain = build(["markdown/boo.jpg"], docs)
    assert md.corpus._key_sorted is plain.corpus._key_sorted
    assert md.corpus._key_row is plain.corpus._key_row
    md.check()
    assert md.corpus.markdown and md.opts.markdown
    assert not plain.corpus.markdown and not plain.opts.markdown
    own = build(["markdown/boo.jpg"],
                pa.Table.from_batches(docs.to_batches()))
    assert own.corpus._key_sorted is not plain.corpus._key_sorted
    assert key_set(plain.check()) == key_set(own.check())


def test_mesh_node_drops_stale_pumps_and_kicks():
    """A pump or kick sent for another lease generation, or reaching a
    released node, is dropped under the node lock (no Ray needed)."""
    from linkinator_ray import schema, urlkit
    from linkinator_ray.pipelines.crawl import _frontier_rows
    from linkinator_ray.state.mesh import MeshNode
    sent = []

    class SelfHandle:
        """Records the pumps the node schedules for itself."""
        class pump:
            @staticmethod
            def remote(generation):
                sent.append(generation)

    url = "http://a.test/"
    node = MeshNode(0, 1, None, {"http_map": [], "strict": False},
                    CheckOptions(paths=[url]))
    node.start(SelfHandle(), 7)
    node.connect([SelfHandle()])
    node.enqueue(schema.encode(_frontier_rows(
        url=[url], url_hash=urlkit.hash64_array([url]), host=["a.test"],
        parent=[""], depth=[0], do_crawl=[True], root_path=[url],
        attempt=[0], not_before=[0.0])))
    assert sent == [7]
    node.pump(6)
    node.kick(6)
    assert node.queued_rows == 1 and sent == [7]
    node.close()
    node.pump(7)
    node.kick(7)
    assert node.queued_rows == 1 and sent == [7]


def pumped_node(opts, docs, urls, peers=()):
    """Node 0 of a mesh of ``1 + len(peers)`` nodes (balanced routing,
    no Ray) after it enqueued the corpus pages ``urls`` and pumped once;
    its own pumps go nowhere."""
    from linkinator_ray import schema, urlkit
    from linkinator_ray.pipelines.crawl import _frontier_rows
    from linkinator_ray.state.mesh import MeshNode

    class SelfHandle:
        class pump:
            @staticmethod
            def remote(generation):
                pass

    node = MeshNode(
        0, 1 + len(peers), {"documents": schema.encode(docs)},
        {"http_map": [], "strict": False}, opts, sticky_hosts=False)
    node.start(SelfHandle(), 1)
    node.connect([SelfHandle(), *peers])
    n = len(urls)
    node.enqueue(schema.encode(_frontier_rows(
        url=urls, url_hash=urlkit.hash64_array(urls),
        host=["corpus.test"] * n, parent=[""] * n, depth=[0] * n,
        do_crawl=[True] * n, root_path=["http://corpus.test/"] * n,
        attempt=[0] * n, not_before=[0.0] * n)))
    node.pump(1)
    assert not node.errors
    return node


def test_mesh_node_sends_peer_candidates_every_pump():
    """End-of-pump flush rule (no Ray needed): node 0 of a two-node mesh
    pumps four pages (its cap, 4 × ``batch_size``) whose links route
    candidates to node 1 while its own queue still holds a fifth page.
    It sends them to node 1 in that pump rather than holding them until
    its queue empties: a held row idles the peer (on the wire, its
    connections). The peer's stub decodes each candidate message."""
    from linkinator_ray import schema
    sent = []

    class Peer:
        class deliver_candidates:
            @staticmethod
            def remote(buf):
                sent.append(schema.decode(buf).num_rows)

    links = [fx._anchor(f"/p{i}.html") for i in range(40)]
    pages = [f"{c}.html" for c in "abcde"]
    urls = [f"http://corpus.test/{p}" for p in pages]
    node = pumped_node(CheckOptions(paths=urls, recurse=True, batch_size=1),
                       fx.docs_table(*(fx.doc(p, *links) for p in pages)),
                       urls, [Peer()])
    assert node.counters["urls_checked"] == 4
    assert node.queued_rows  # e.html and node 0's own links wait
    assert sum(sent) > 0 and node.poll()["held_cand"] == 0
    node.close()


def test_mesh_node_reads_every_setting_from_check_options():
    """One ``CheckOptions`` is all a node and its fetch worker get: a
    one-node mesh built from it recurses into the pages' links, skips
    ``links_to_skip`` matches, records fragment wants, runs cuckoo seen
    filters for ``seen_filter`` and caps each pump at 4 × ``batch_size``
    rows."""
    from linkinator_ray.state.cuckoo import CuckooFilter
    pages = [f"p{i}.html" for i in range(9)]
    links = [fx._anchor("/child.html#top"),
             fx._anchor("http://skip.invalid/x")]
    urls = [f"http://corpus.test/{p}" for p in pages]
    node = pumped_node(
        CheckOptions(paths=urls, recurse=True, check_fragments=True,
                     links_to_skip=[r"skip\.invalid"], seen_filter="cuckoo",
                     batch_size=2),
        fx.docs_table(*(fx.doc(p, *links) for p in pages),
                      fx.doc("child.html")), urls)
    assert isinstance(node.url_seen._filter, CuckooFilter)
    assert isinstance(node.edge_seen._filter, CuckooFilter)
    assert node.counters["urls_checked"] == 8  # the cap, 4 × 2 rows
    queued = [r for t in node.queue for r in t.to_pylist()]
    # the ninth page waits; the link the first eight share is queued to
    # crawl
    assert {(r["url"], r["do_crawl"]) for r in queued} == {
        ("http://corpus.test/p8.html", True),
        ("http://corpus.test/child.html", True)}
    skipped = [r for t in node.results_buf for r in t.to_pylist()
               if r["state"] == "SKIPPED"]
    assert {r["url"] for r in skipped} == {"http://skip.invalid/x"}
    assert node.pending_fragments == {
        "http://corpus.test/child.html": {"top"}}
    node.close()
