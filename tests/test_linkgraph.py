"""Link-graph analytics: degree stats and exact-integer PageRank/HITS.

PageRank and HITS are differential-tested: the resident-shard engine
(edges scattered once, pre-aggregated sums per step) must reproduce the
single-machine integer recurrence bit-for-bit at any shard count —
floor-division fixed point makes the result order-independent, which is
what the DuckDB oracle relies on too.
"""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _edges(sf_dir: str) -> list[tuple[int, int]]:
    from linkinator_ray.pipelines.graph import _doc_ids, targets_of
    ids = _doc_ids(sf_dir)
    n = len(ids)
    out = set()
    for d in ids:
        d = int(d)
        if d % 13 == 7:
            continue
        for t in targets_of(d, n):
            out.add((d, t))
    return sorted(out)


def test_degree_stats_matches_ground_truth(ray_session):
    from linkinator_ray.pipelines.linkgraph import degree_stats
    edges = _edges(SF)
    out_t: dict[int, int] = {}
    in_t: dict[int, int] = {}
    for u, v in edges:
        out_t[u] = out_t.get(u, 0) + 1
        in_t[v] = in_t.get(v, 0) + 1
    got = degree_stats(SF).to_pandas().set_index("doc_id").sort_index()
    nodes = sorted(set(out_t) | set(in_t))
    assert list(got.index) == nodes
    for d in nodes:
        assert got.loc[d, "out_deg"] == out_t.get(d, 0)
        assert got.loc[d, "in_deg"] == in_t.get(d, 0)
    # missing docs (d % 13 == 7) are link TARGETS only: in-links, no outs
    missing = [d for d in nodes if d % 13 == 7]
    assert missing and all(got.loc[d, "out_deg"] == 0 for d in missing)


def test_pagerank_reference_star():
    # hub <- spokes: the hub's rank must dominate every spoke's
    from linkinator_ray.pipelines.linkgraph import pagerank_reference
    edges = [(i, 0) for i in range(1, 6)] + [(0, 1)]
    # the 0<->1 cycle oscillates at low iteration counts; 40 is well
    # past convergence of the damped recurrence
    pr = pagerank_reference(edges, iters=40)
    assert pr[0] > pr[1] > pr[2] == pr[3] == pr[4] == pr[5]
    # total mass bounded: every value positive and below |V| * scale
    assert all(0 < v < 6 * 10 ** 12 for v in pr.values())


def test_pagerank_distributed_equals_reference(ray_session):
    from linkinator_ray.pipelines.linkgraph import pagerank, \
        pagerank_reference
    expect = pagerank_reference(_edges(SF), iters=4)
    got = pagerank(SF, iters=4).to_pandas()
    assert len(got) == len(expect)
    got = got.set_index("doc_id")["pr"]
    for d, v in expect.items():
        assert int(got.loc[d]) == v, f"doc {d}: {got.loc[d]} != {v}"


def test_pagerank_actors_equals_dataset(ray_session):
    """``pagerank_actors`` (the engine's first name) must be
    BIT-IDENTICAL to the single-machine recurrence at two shard counts
    (partition-invariance)."""
    from linkinator_ray.pipelines.linkgraph import pagerank_actors, \
        pagerank_reference
    want = sorted(pagerank_reference(_edges(SF), iters=4).items())
    for shards in (2, 5):
        got = pagerank_actors(SF, iters=4, num_shards=shards).to_pandas() \
            .sort_values("doc_id")
        assert list(zip(got.doc_id, got.pr)) == want, shards


def test_guard_contrib_detects_wraps():
    """Both overflow modes fail loudly: a wrapped-negative SUM partial
    and a contrib too large for the damping multiply."""
    import numpy as np
    import pytest as _pytest
    from linkinator_ray.pipelines.linkgraph import _guard_contrib
    _guard_contrib(np.array([0, 10**15], dtype=np.int64), 85)  # fine
    with _pytest.raises(OverflowError, match="wrapped"):
        _guard_contrib(np.array([5, -3], dtype=np.int64), 85)
    with _pytest.raises(OverflowError, match="damping"):
        _guard_contrib(np.array([(2**63 - 1) // 85 + 1], dtype=np.int64),
                       85)


def test_pagerank_iteration_changes_ranks(ray_session):
    # guards against a silently-cached/unmaterialized loop: iters=0
    # is the uniform init, iters=4 must differ
    from linkinator_ray.pipelines.linkgraph import pagerank_reference
    edges = _edges(SF)
    pr0 = pagerank_reference(edges, iters=0)
    pr4 = pagerank_reference(edges, iters=4)
    assert len(set(pr0.values())) == 1
    assert len(set(pr4.values())) > 10


def _tri_ds(edges, **kw):
    import pyarrow as pa
    import ray.data as rd
    from linkinator_ray.pipelines.linkgraph import triangle_count_edges
    src = [int(a) for a, _ in edges]
    dst = [int(b) for _, b in edges]
    ds = rd.from_arrow(pa.table({"src_doc": pa.array(src, pa.int64()),
                                 "dst_doc": pa.array(dst, pa.int64())}))
    out = triangle_count_edges(ds, **kw).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def test_triangle_planted_graphs(ray_session):
    # K4: every node is in C(3,2)=3 triangles, deg 3, wedges 3
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    t = _tri_ds(k4)
    assert list(t["triangles"]) == [3, 3, 3, 3]
    assert list(t["deg"]) == [3, 3, 3, 3]
    assert list(t["wedges"]) == [3, 3, 3, 3]

    # path 0-1-2-3: no triangles, middle nodes have a wedge
    t = _tri_ds([(0, 1), (1, 2), (2, 3)])
    assert list(t["triangles"]) == [0, 0, 0, 0]
    assert list(t["wedges"]) == [0, 1, 1, 0]

    # hub star (the curse-of-the-last-reducer shape): many wedges at
    # the hub, zero triangles
    star = [(100, i) for i in range(30)]
    t = _tri_ds(star)
    hub = t[t.doc_id == 100].iloc[0]
    assert hub.deg == 30 and hub.wedges == 30 * 29 // 2
    assert t["triangles"].sum() == 0

    # two triangles sharing edge (0,1); duplicate + reversed + self
    # edges must canonicalize away
    g = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (2, 2)]
    t = _tri_ds(g)
    got = dict(zip(t.doc_id, t.triangles))
    assert got == {0: 2, 1: 2, 2: 1, 3: 1}


def test_triangle_matches_reference_and_oracle_face(ray_session):
    from linkinator_ray.pipelines.linkgraph import (triangle_count,
                                                    triangle_reference)
    edges = _edges(SF)
    ref = triangle_reference(edges)
    got = triangle_count(SF).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert set(got.doc_id) == set(ref)
    for _, r in got.iterrows():
        assert ref[int(r.doc_id)] == int(r.triangles), int(r.doc_id)
    # wedges = C(deg, 2) per node, exact
    d = got["deg"].to_numpy()
    assert (got["wedges"].to_numpy() == d * (d - 1) // 2).all()
    # global invariant: participations = 3 * number of triangles
    assert got["triangles"].sum() % 3 == 0


def test_triangle_partition_invariance(ray_session):
    import numpy as np
    rng = np.random.RandomState(7)
    # random multigraph with plenty of triangles
    e = [(int(rng.randint(0, 40)), int(rng.randint(0, 40)))
         for _ in range(400)]
    a = _tri_ds(e, num_parts=2)
    b = _tri_ds(e, num_parts=13)
    pd.testing.assert_frame_equal(a, b)
    from linkinator_ray.pipelines.linkgraph import triangle_reference
    ref = triangle_reference(e)
    got = dict(zip(a.doc_id, a.triangles))
    assert got == {n: c for n, c in ref.items()}


def test_pagerank_actor_duplicate_delivery_is_dropped(ray_session):
    """The step barrier dedupes by SENDER: a duplicated message (task
    retry / re-send) must not double-count sums or satisfy the barrier
    early — for a PageRank step and a HITS half-step alike."""
    import numpy as np
    import ray

    from linkinator_ray.pipelines.linkgraph import _make_graph_shard
    GS = _make_graph_shard()
    s = GS.remote(0, 1)  # single shard owns the whole 2-cycle 0<->1
    ray.get(s.add_edges.remote(("k", 0), np.array([0, 1], np.int64),
                               np.array([1, 0], np.int64)))
    ray.get(s.seal.remote({"pr": 1_000_000, "hub": 0, "auth": 1_000_000}))
    # PageRank step: pr[v] = 150000 + (Σ pr[u] // deg[u]) * 85 // 100
    ray.get(s.push.remote(0, "pr", "out", True, [s]))
    ray.get(s.push.remote(0, "pr", "out", True, [s]))  # duplicate delivery
    assert ray.get(s.ready.remote(0))
    # each node has deg 1 and receives exactly ONE share of 10^6 — a
    # double-counted duplicate would sum to 2 * 10^6
    assert ray.get(s.gather.remote(0)) == (1_000_000, 1_000_000)
    ray.get(s.apply.remote("pr", 150_000, 85, 100))
    # HITS hub half-step: hub[u] = Σ_{u->v} auth[v], max-normalized
    ray.get(s.push.remote(1, "auth", "in", False, [s]))
    ray.get(s.push.remote(1, "auth", "in", False, [s]))  # duplicate
    assert ray.get(s.ready.remote(1))
    assert ray.get(s.gather.remote(1)) == (1_000_000, 1_000_000)
    ray.get(s.apply.remote("hub", 0, 1_000_000, 1_000_000))
    got = ray.get(s.table.remote(["pr", "hub"])).to_pandas()
    assert set(got["pr"]) == {150_000 + 1_000_000 * 85 // 100}
    assert set(got["hub"]) == {1_000_000}
    assert not ray.get(s.errors.remote())
    ray.kill(s)


def test_hits_reference_hub_authority():
    # 3 hubs all point at node 0; node 0 points at node 4.
    # The hubs share the top hub score; 0 is the unique top authority.
    from linkinator_ray.pipelines.linkgraph import hits_reference
    edges = [(1, 0), (2, 0), (3, 0), (0, 4)]
    scores = hits_reference(edges, iters=3, scale=10 ** 6)
    hubs = {v: h for v, (h, _) in scores.items()}
    auths = {v: a for v, (_, a) in scores.items()}
    assert hubs[1] == hubs[2] == hubs[3] == 10 ** 6
    assert max(auths, key=auths.get) == 0 and auths[0] == 10 ** 6
    # node 4 is a pure sink: no out-edges -> zero hub score
    assert hubs[4] == 0


def test_hits_distributed_equals_reference(ray_session):
    """The resident-shard engine must be BIT-IDENTICAL to the single-
    machine integer recurrence — max-normalized floor arithmetic is
    order-independent — at the default shard count and at 2 and 5."""
    from linkinator_ray.pipelines import graph
    from linkinator_ray.pipelines.linkgraph import (_hits_edges, hits,
                                                    hits_reference)
    expect = hits_reference(_edges(SF), iters=3)
    runs = {"default": hits(SF, iters=3)}
    for shards in (2, 5):
        runs[shards] = _hits_edges(graph.extract_edges(SF), iters=3,
                                   num_shards=shards)
    for shards, ds in runs.items():
        got = ds.to_pandas().set_index("doc_id")
        assert len(got) == len(expect), shards
        for d, (h, a) in expect.items():
            assert int(got.loc[d, "hub"]) == h, f"hub {d} ({shards})"
            assert int(got.loc[d, "auth"]) == a, f"auth {d} ({shards})"


def test_hits_guards_fire_on_shards(ray_session):
    """The max-normalize guards hold on the shard engine: a zero
    normalizer raises ValueError, and a normalize multiply past int64
    raises OverflowError instead of wrapping."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from linkinator_ray.pipelines.linkgraph import _hits_edges
    edges = rd.from_arrow(pa.table({
        "src_doc": pa.array([1, 2, 0], pa.int64()),
        "dst_doc": pa.array([0, 0, 3], pa.int64())}))
    # scale 0: every authority starts at 0, so every raw hub sum is 0
    with pytest.raises(ValueError, match="normalizer is 0"):
        _hits_edges(edges, iters=1, scale=0, num_shards=2)
    # the first raw hub sum is 10^10, and 10^10 * 10^10 > 2^63 - 1
    with pytest.raises(OverflowError, match="normalize multiply"):
        _hits_edges(edges, iters=1, scale=10 ** 10, num_shards=2)


def _cocite_ds(edges, **kw):
    import pyarrow as pa
    import ray.data as rd
    from linkinator_ray.pipelines.linkgraph import cocitation_topk_edges
    src = [int(a) for a, _ in edges]
    dst = [int(b) for _, b in edges]
    ds = rd.from_arrow(pa.table({"src_doc": pa.array(src, pa.int64()),
                                 "dst_doc": pa.array(dst, pa.int64())}))
    return cocitation_topk_edges(ds, **kw).to_pandas()


def _cocite_reference(edges, k, max_out_degree):
    """Brute-force co-citation: count citing pages per ordered pair."""
    from collections import Counter, defaultdict
    outs = defaultdict(set)
    for s, d in edges:
        outs[s].add(d)
    c = Counter()
    for s, ds in outs.items():
        if len(ds) > max_out_degree:
            continue
        ds = sorted(ds)
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                c[(ds[i], ds[j])] += 1
    rows = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [(a, b, n) for (a, b), n in rows]


def test_cocitation_planted(ray_session):
    # 3 pages all cite {10, 11}; one also cites 12
    e = [(0, 10), (0, 11), (1, 10), (1, 11), (2, 10), (2, 11), (2, 12)]
    got = _cocite_ds(e, k=10)
    rows = list(zip(got.a, got.b, got.n))
    assert rows[0] == (10, 11, 3)
    assert set(rows[1:]) == {(10, 12, 1), (11, 12, 1)}

    # degree cap: a hub citing 5 targets is dropped at cap 4
    hub = [(99, t) for t in range(5)]
    got = _cocite_ds(e + hub, k=50, max_out_degree=4)
    assert not ((got.a < 5) & (got.b < 5)).any()
    # without the cap the hub's C(5,2)=10 pairs appear
    got = _cocite_ds(e + hub, k=50, max_out_degree=64)
    assert ((got.a < 5) & (got.b < 5)).sum() == 10


def test_cocitation_matches_reference_and_partition_invariant(ray_session):
    rng = np.random.RandomState(11)
    e = sorted({(int(rng.randint(0, 60)), int(rng.randint(0, 200)))
                for _ in range(600)})
    expect = _cocite_reference(e, k=25, max_out_degree=16)
    a = _cocite_ds(e, k=25, max_out_degree=16, num_parts=3)
    b = _cocite_ds(e, k=25, max_out_degree=16, num_parts=11)
    assert list(zip(a.a, a.b, a.n)) == expect
    pd.testing.assert_frame_equal(a, b)
    # sf fixture end-to-end vs brute force over the known edge rule
    from linkinator_ray.pipelines.linkgraph import cocitation_topk
    expect_sf = _cocite_reference(_edges(SF), k=20, max_out_degree=64)
    got_sf = cocitation_topk(SF, k=20).to_pandas()
    assert list(zip(got_sf.a, got_sf.b, got_sf.n)) == expect_sf


def _bfs_reference(edges, roots):
    """Single-machine min-depth BFS."""
    from collections import defaultdict, deque
    adj = defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
    depth = {r: 0 for r in roots}
    q = deque(roots)
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                q.append(v)
    return depth


def _depth_ds(edges, roots, **kw):
    import pyarrow as pa
    import ray.data as rd
    from linkinator_ray.pipelines.linkgraph import crawl_depth_edges
    src = [int(a) for a, _ in edges]
    dst = [int(b) for _, b in edges]
    ds = rd.from_arrow(pa.table({"src_doc": pa.array(src, pa.int64()),
                                 "dst_doc": pa.array(dst, pa.int64())}))
    t = crawl_depth_edges(ds, roots=roots, **kw).to_pandas()
    return dict(zip(t.doc_id, t.depth))


def test_crawl_depth_edges_planted(ray_session):
    # diamond + tail + unreachable island; a back-edge must not deepen
    e = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (9, 10)]
    assert _depth_ds(e, [0]) == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    # multi-root: island becomes reachable, depths take the min root
    got = _depth_ds(e, [0, 9], num_parts=3)
    assert got == _bfs_reference(e, [0, 9])


def test_crawl_depth_engine_matches_reference(ray_session):
    """The ENGINE's round counter (graph.crawl_depth) must equal a
    single-machine BFS over the known edge rule — the level-synchronous
    round loop's depth semantics, end to end through fetch/extract/
    seen-set."""
    from linkinator_ray.pipelines.graph import crawl_depth
    expect = _bfs_reference(_edges(SF), [0])
    got = crawl_depth(SF).to_pandas()
    assert dict(zip(got.doc_id, got.depth)) == expect


def test_crawl_depth_refuses_non_round_results():
    """crawl_depth's depth = round - 1 holds only for the round
    executor: a cached result from any other executor raises instead
    of reading as wrong depths."""
    import pyarrow as pa
    import pytest

    from linkinator_ray.pipelines import graph
    graph._REACH_CACHE["fake-sf"] = ("pipelined", pa.table({"x": [1]}))
    try:
        with pytest.raises(RuntimeError, match="rounds"):
            graph.crawl_depth("fake-sf")
    finally:
        graph._REACH_CACHE.pop("fake-sf", None)


def test_broken_link_parents_matches_rule(ray_session):
    """The duplicate-broken-join certificate vs the known edge rule:
    per missing doc, the distinct crawled parents — and the operator
    must RAISE if the engine ever re-emits a (url, parent) edge twice
    (the exactly-once half of the contract)."""
    from collections import defaultdict
    from linkinator_ray.pipelines.graph import (_doc_ids,
                                                broken_link_parents,
                                                targets_of)
    ids = _doc_ids(SF)
    n = len(ids)
    parents = defaultdict(set)
    for d in ids:
        d = int(d)
        if d % 13 == 7:
            continue
        for t in targets_of(d, n):
            if t % 13 == 7:
                parents[t].add(d)
    # only parents that the crawl actually reached count
    from linkinator_ray.pipelines.linkgraph import crawl_depth_edges  # noqa
    reach = _bfs_reference(_edges(SF), [0])
    parents = {t: {p for p in ps if p in reach}
               for t, ps in parents.items()}
    parents = {t: ps for t, ps in parents.items() if ps and t in reach}
    got = broken_link_parents(SF).to_pandas().set_index("doc_id")
    assert set(got.index) == set(parents)
    for t, ps in parents.items():
        assert got.loc[t, "n_parents"] == len(ps)
        assert got.loc[t, "min_parent"] == min(ps)
        assert got.loc[t, "max_parent"] == max(ps)
