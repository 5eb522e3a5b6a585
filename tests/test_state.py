"""Seen-set shards, cuckoo filter, checkpoint/resume."""

import numpy as np
import pyarrow as pa
import pytest

from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.state.cuckoo import CuckooFilter
from linkinator_ray.state.seen import SeenShard


class TestCuckooFilter:
    def test_insert_and_contains(self):
        filt = CuckooFilter(1024)
        keys = np.random.default_rng(7).integers(0, 2**63, 500, dtype=np.uint64)
        first = filt.contains_or_insert(keys)
        assert not first.any()  # all new
        again = filt.contains_or_insert(keys)
        assert again.all()  # all present now

    def test_within_batch_dups(self):
        filt = CuckooFilter(64)
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        out = filt.contains_or_insert(keys)
        assert out.tolist() == [False, False, True, False, True]

    def test_no_false_negatives_at_high_load(self):
        filt = CuckooFilter(256)
        keys = np.random.default_rng(3).integers(0, 2**63, 300, dtype=np.uint64)
        filt.contains_or_insert(keys)  # overfull → overflow set engages
        assert filt.contains(keys).all()

    def test_false_positive_rate_reasonable(self):
        filt = CuckooFilter(1 << 16)
        rng = np.random.default_rng(11)
        inserted = rng.integers(0, 2**63, 40_000, dtype=np.uint64)
        filt.contains_or_insert(inserted)
        probes = rng.integers(0, 2**63, 40_000, dtype=np.uint64)
        fresh = probes[~np.isin(probes, inserted)]
        fp = filt.contains(fresh).mean()
        assert fp < 0.01, fp

    def test_sharded_keys_fill_to_85_percent_without_victims(self):
        """A mesh node's filter only sees keys with ``key % K == node``.
        Buckets and fingerprints come from the mixed key, so keys with
        their two low bits fixed (node 0 of 4) still spread over every
        bucket: at 85% load no key is left for the victim cache (bucket
        indices from the raw low bits reached a quarter of the buckets
        and left thousands)."""
        filt = CuckooFilter(1 << 16)
        keys = np.random.default_rng(4).integers(
            0, 2**62, int(0.85 * (1 << 16)), dtype=np.uint64) << np.uint64(2)
        for i in range(0, len(keys), 2048):
            filt.contains_or_insert(keys[i:i + 2048])
        assert filt.count / (4 * filt.n_buckets) > 0.849
        assert not filt._victims
        assert filt.contains(keys).all()


class TestSeenShard:
    def test_shard_exact_vs_cuckoo_equivalent(self):
        keys = np.random.default_rng(9).integers(0, 2**63, 2000, dtype=np.uint64)
        exact = SeenShard(0, "exact")
        cuckoo = SeenShard(0, "cuckoo", capacity=1 << 14)
        assert (exact.contains_or_insert(keys) == cuckoo.contains_or_insert(keys)).all()


class TestCheckpointResume:
    def test_resume_equivalence(self, tmp_path):
        """Kill after round k, resume, same final result sets
        (SURVEY.md §5 test 6)."""
        fixture = fx.repeated_broken_link()
        opts = dict(fixture.options)

        full = LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                           fixture.documents, fixture.http_map).check()

        ckpt_dir = str(tmp_path / "ckpt")
        opts_ck = dict(opts, checkpoint_dir=ckpt_dir, max_rounds=2)
        partial = LinkChecker(CheckOptions(paths=fixture.seeds, **opts_ck),
                              fixture.documents, fixture.http_map).check()
        assert partial.results.num_rows < full.results.num_rows  # truly killed early

        opts_res = dict(opts, checkpoint_dir=ckpt_dir)
        resumed_checker = LinkChecker(CheckOptions(paths=fixture.seeds, **opts_res),
                                      fixture.documents, fixture.http_map)
        resumed = resumed_checker.check(resume_from=ckpt_dir)

        def key_set(res):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in res.results.to_pylist()}
        assert key_set(resumed) == key_set(full)
        assert resumed.passed == full.passed

    def test_resume_into_new_checkpoint_dir(self, tmp_path):
        """A run resumed from one directory that checkpoints into
        another starts a new key-journal chain there, so the new
        directory resumes on its own to a clean run's result set."""
        import os

        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=200)

        def run(resume_from=None, **kw):
            return LinkChecker(CheckOptions(paths=seeds, recurse=True, **kw),
                               docs, [], multi_host=True) \
                .check(resume_from=resume_from)
        full = run()
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        run(checkpoint_dir=first, max_rounds=2)
        run(first, checkpoint_dir=second, max_rounds=3)
        assert os.listdir(second) == ["round_000003"]
        resumed = run(second)

        def key(res):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in res.results.to_pylist()}
        assert key(resumed) == key(full)
        assert resumed.stats["seen_urls"] == expected_seen

    def test_manifest_lineage(self, tmp_path):
        import json
        import os
        fixture = fx.recurse()
        ckpt_dir = str(tmp_path / "ck")
        opts = dict(fixture.options, checkpoint_dir=ckpt_dir)
        LinkChecker(CheckOptions(paths=fixture.seeds, **opts),
                    fixture.documents, fixture.http_map).check()
        rounds = sorted(d for d in os.listdir(ckpt_dir) if d.startswith("round_"))
        assert len(rounds) >= 2
        with open(os.path.join(ckpt_dir, rounds[-1], "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["round"] == len(rounds)
        assert manifest["parent_round"] == manifest["round"] - 1
        assert "row_counts" in manifest and "counters" in manifest

    def test_resume_refuses_another_edge_key_scheme(self, tmp_path):
        """Every manifest names the edge-key scheme. A round whose
        manifest lacks it (an earlier version keyed edges by
        hash64(url|parent)) raises a ValueError naming the checkpoint
        and the round, instead of seeding the edge set with keys that
        no re-found edge matches. The refusal comes before the
        stale-part prune: every file in ``results_dir``, a stale part
        included, keeps its name and bytes."""
        import json
        import os

        from linkinator_ray import urlkit
        from linkinator_ray.state import checkpoint as ckpt
        fixture = fx.repeated_broken_link()
        ck, res = str(tmp_path / "ck"), tmp_path / "res"
        opts = dict(paths=fixture.seeds, results_dir=str(res),
                    results_flush_rows=1, **fixture.options)
        LinkChecker(CheckOptions(**opts, checkpoint_dir=ck, max_rounds=2),
                    fixture.documents, fixture.http_map).check()
        # past the checkpoint's spill counter: a prune would delete it
        (res / "part_00_09999.parquet").write_bytes(b"stale")
        mpath = os.path.join(ck, "round_000002", "manifest.json")
        with open(mpath) as f:
            manifest = json.load(f)
        assert manifest["extra"]["edge_key"] == urlkit.EDGE_KEY_SCHEME
        del manifest["extra"]["edge_key"]
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match="round 2 keys its edges") as err:
            ckpt.load_key_journal(ck, 2)
        assert ck in str(err.value)
        before = {p.name: p.read_bytes() for p in res.iterdir()}
        assert len(before) > 1
        with pytest.raises(ValueError, match="round 2 keys its edges") as err:
            LinkChecker(CheckOptions(**opts), fixture.documents,
                        fixture.http_map).check(resume_from=ck)
        assert ck in str(err.value)
        assert {p.name: p.read_bytes() for p in res.iterdir()} == before

    def test_resume_refuses_node_spill_parts(self, tmp_path):
        """Earlier versions let mesh nodes write results parts of their
        own and counted them in the manifest's ``node_spill_parts``. A
        checkpoint whose newest manifest holds a nonzero node floor
        raises a ValueError naming the checkpoint and the round, before
        the stale-part prune, which would delete that node's finished
        parts: every file in ``results_dir`` keeps its name and
        bytes."""
        import json
        import os

        fixture = fx.repeated_broken_link()
        ck, res = str(tmp_path / "ck"), tmp_path / "res"
        opts = dict(paths=fixture.seeds, results_dir=str(res),
                    results_flush_rows=1, **fixture.options)
        LinkChecker(CheckOptions(**opts, checkpoint_dir=ck, max_rounds=2),
                    fixture.documents, fixture.http_map).check()
        # a node part below its floor, and a driver part past the
        # checkpoint's spill counter: a prune would delete both
        (res / "part_01_00000.parquet").write_bytes(b"node 0")
        (res / "part_00_09999.parquet").write_bytes(b"stale")
        mpath = os.path.join(ck, "round_000002", "manifest.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest["extra"]["node_spill_parts"] = [1]
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        before = {p.name: p.read_bytes() for p in res.iterdir()}
        assert len(before) > 2
        with pytest.raises(ValueError, match="round 2 counts results "
                           "parts written by mesh nodes") as err:
            LinkChecker(CheckOptions(**opts), fixture.documents,
                        fixture.http_map).check(resume_from=ck)
        assert ck in str(err.value)
        assert {p.name: p.read_bytes() for p in res.iterdir()} == before

    def test_broken_first_restores_exactly(self, tmp_path):
        """A checkpoint's ``broken_first`` holds every frontier-level
        BROKEN row so far, spilled or not, and a resume restores exactly
        that table. An earlier version's held only the spilled rows (an
        empty table here, where nothing spilled): its resume takes the
        rest from ``results``, and both reach a clean run's rows, the
        duplicate-broken re-reports included."""
        import os

        import pyarrow.parquet as pq

        from linkinator_ray import schema
        from linkinator_ray.pipelines.crawl import frontier_broken_mask
        fixture = fx.repeated_broken_link()

        def build(**kw):
            return LinkChecker(
                CheckOptions(paths=fixture.seeds, **fixture.options, **kw),
                fixture.documents, fixture.http_map)

        def key_set(res):
            return sorted((r["url"], r["state"], r["status"], r["parent"])
                          for r in res.results.to_pylist())
        full = build().check()
        ck = str(tmp_path / "ck")
        build(checkpoint_dir=ck, max_rounds=3).check()
        path = os.path.join(ck, "round_000003", "broken_first.parquet")
        saved = pq.read_table(path)
        results = pq.read_table(os.path.join(ck, "round_000003",
                                             "results.parquet"))
        assert saved.num_rows and saved.equals(
            results.filter(frontier_broken_mask(results)))
        checker = build()
        checker._load_checkpoint(ck)
        assert pa.concat_tables(checker.broken_first_tables).equals(saved)
        assert key_set(build().check(resume_from=ck)) == key_set(full)

        pq.write_table(schema.empty(schema.RESULT_ROWS), path)
        checker = build()
        checker._load_checkpoint(ck)
        assert pa.concat_tables(checker.broken_first_tables).equals(saved)
        resumed = build().check(resume_from=ck)
        assert key_set(resumed) == key_set(full)
        assert resumed.stats["broken"] == full.stats["broken"]

    def test_resume_continues_scripted_sequences(self, tmp_path):
        """The mock transport's sequence counters travel with the
        checkpoint: resumed mid-Retry-After, the retry fixture's next
        requests get their seq-1 200s, not the seq-0 429s again, so the
        partial and the resumed request logs together are an
        uninterrupted run's log, tuple for tuple."""
        from linkinator_ray.state.clock import FakeClock
        fixture = fx.retry_fixture()

        def run(resume_from=None, **kw):
            return LinkChecker(
                CheckOptions(paths=fixture.seeds, **fixture.options, **kw),
                fixture.documents, fixture.http_map, clock=FakeClock()) \
                .check(resume_from=resume_from)
        full = run()
        ck = str(tmp_path / "ck")
        partial = run(checkpoint_dir=ck, max_rounds=2)
        assert ("http://slow.invalid/1", "HEAD", 429) in partial.call_log
        resumed = run(ck)
        assert partial.call_log + resumed.call_log == full.call_log
        assert resumed.passed and resumed.stats["retries"] == \
            full.stats["retries"]


class TestSpillResume:
    def test_spill_state_survives_resume(self, tmp_path):
        """Crash/resume with a streaming results_dir: a resumed run must
        continue parquet part numbering (not overwrite part_00000) and
        keep earlier spills' BROKEN rows available to the J1
        duplicate-broken join."""
        import os
        import pyarrow.parquet as pq
        fixture = fx.repeated_broken_link()
        opts = dict(fixture.options)

        def run(extra, resume_from=None):
            checker = LinkChecker(
                CheckOptions(paths=fixture.seeds, **opts, **extra),
                fixture.documents, fixture.http_map)
            return checker, checker.check(resume_from=resume_from)

        # ground truth: full run with spilling
        full_dir = str(tmp_path / "full")
        _, full = run({"results_dir": full_dir, "results_flush_rows": 1})

        ck = str(tmp_path / "ck")
        res_dir = str(tmp_path / "res")
        _, partial = run({"results_dir": res_dir, "results_flush_rows": 1,
                          "checkpoint_dir": ck, "max_rounds": 2})
        parts_before = sorted(os.listdir(res_dir))
        assert parts_before, "expected spilled parts from the partial run"

        checker, resumed = run({"results_dir": res_dir, "results_flush_rows": 1,
                                "checkpoint_dir": ck}, resume_from=ck)
        parts_after = sorted(os.listdir(res_dir))
        # old parts still present, new parts appended after them
        assert set(parts_before) <= set(parts_after)
        assert checker._spill_part >= len(parts_before)

        def key_set(table):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in table.to_pylist()}

        def read_all(d):
            import pyarrow as pa
            return pa.concat_tables(
                [pq.read_table(os.path.join(d, p)) for p in sorted(os.listdir(d))])

        # full-record equivalence: spilled parts of the resumed run
        # cover the same (url,state,status,parent) set as a clean run's
        full_keys = key_set(read_all(full_dir))
        resumed_keys = key_set(read_all(res_dir))
        # resume replays the checkpointed round, so resumed may hold the
        # same keys; it must not LOSE any
        assert full_keys <= resumed_keys
        assert resumed.passed == full.passed


class TestMeshCheckpoint:
    def test_mesh_checkpoint_resume(self, ray_session, tmp_path):
        """Kill a mesh crawl mid-flight (abort after the first epoch
        snapshot), resume from its checkpoint, same final sets as a
        clean run — the driver-coordinated pause/snapshot protocol."""
        import os

        from linkinator_ray.pipelines import crawl as crawl_mod
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=400)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2)
        full = LinkChecker(CheckOptions(**base), docs, [],
                           multi_host=True, use_ray=True).check()

        ck = str(tmp_path / "meshck")
        # small wire latency so the crawl cannot drain before the first
        # 0.2 s epoch fires (the bomb below needs >=1 checkpoint; results
        # are latency-independent)
        partial = LinkChecker(
            CheckOptions(**base, checkpoint_dir=ck,
                         checkpoint_interval_s=0.2, batch_size=64),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.02)
        orig = crawl_mod.LinkChecker._mesh_checkpoint
        calls = {"n": 0}

        def bomb(self, nodes, epoch, num_actors, seed_rows):
            orig(self, nodes, epoch, num_actors, seed_rows)
            calls["n"] += 1
            if calls["n"] >= 1:
                raise KeyboardInterrupt
        partial._mesh_checkpoint = bomb.__get__(partial)
        try:
            partial.check()
        except KeyboardInterrupt:
            pass
        assert os.path.isdir(ck) and os.listdir(ck), "no mesh checkpoint"

        resumed = LinkChecker(CheckOptions(**base, checkpoint_dir=ck),
                              docs, [], multi_host=True,
                              use_ray=True).check(resume_from=ck)

        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}

        def broken_edges(res):
            return {(r["url"], r["parent"])
                    for r in res.results.to_pylist() if r["state"] == "BROKEN"}
        assert key(resumed) == key(full)
        assert broken_edges(resumed) == broken_edges(full)
        assert resumed.stats["seen_urls"] == expected_seen

    @pytest.mark.parametrize("seen_filter,resume_actors",
                             [("exact", 3), ("cuckoo", 3), ("exact", 1)])
    def test_mesh_elastic_resume(self, ray_session, tmp_path,
                                 seen_filter, resume_actors):
        """Kill a 2-node mesh crawl after its first epoch, resume with a
        DIFFERENT node count: the key journal re-shards the seen/edge
        filters to the new hash ranges, and the final sets match a
        clean run — for the exact filter and the cuckoo filter, growing
        and shrinking."""
        import os

        from linkinator_ray.pipelines import crawl as crawl_mod
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=400)
        base = dict(paths=seeds, recurse=True,
                    seen_filter=seen_filter)
        full = LinkChecker(CheckOptions(**base, fetch_concurrency=2),
                           docs, [], multi_host=True, use_ray=True).check()

        ck = str(tmp_path / "meshck")
        # latency floor: guarantees the partial run outlives the first
        # epoch so the bomb always has a checkpoint to land on
        partial = LinkChecker(
            CheckOptions(**base, fetch_concurrency=2, checkpoint_dir=ck,
                         checkpoint_interval_s=0.2, batch_size=64),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.02)
        orig = crawl_mod.LinkChecker._mesh_checkpoint
        calls = {"n": 0}

        def bomb(self, nodes, epoch, num_actors, seed_rows):
            orig(self, nodes, epoch, num_actors, seed_rows)
            calls["n"] += 1
            if calls["n"] >= 1:
                raise KeyboardInterrupt
        partial._mesh_checkpoint = bomb.__get__(partial)
        try:
            partial.check()
        except KeyboardInterrupt:
            pass
        assert os.path.isdir(ck) and os.listdir(ck), "no mesh checkpoint"

        resumed = LinkChecker(
            CheckOptions(**base, fetch_concurrency=resume_actors,
                         checkpoint_dir=ck),
            docs, [], multi_host=True, use_ray=True).check(resume_from=ck)

        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}

        def broken_edges(res):
            return {(r["url"], r["parent"])
                    for r in res.results.to_pylist() if r["state"] == "BROKEN"}
        assert key(resumed) == key(full)
        assert broken_edges(resumed) == broken_edges(full)
        assert resumed.stats["seen_urls"] == expected_seen

    def test_mesh_elastic_resume_requires_journal(self, ray_session,
                                                  tmp_path):
        """A checkpoint without key journal tables (a round checkpoint
        from an earlier version) raises a ValueError naming the
        checkpoint on both resume paths — local rounds and the mesh's
        restore — instead of resuming with an empty seen set."""
        import json
        import os

        fixture = fx.repeated_broken_link()
        ck = str(tmp_path / "ck2")
        LinkChecker(CheckOptions(paths=fixture.seeds, checkpoint_dir=ck,
                                 max_rounds=2, **fixture.options),
                    fixture.documents, fixture.http_map).check()
        rounds = sorted(d for d in os.listdir(ck) if d.startswith("round_"))
        assert len(rounds) == 2

        def rewrite_manifests(edit):
            for d in rounds:
                mpath = os.path.join(ck, d, "manifest.json")
                with open(mpath) as f:
                    m = json.load(f)
                edit(m)
                with open(mpath, "w") as f:
                    json.dump(m, f)

        def drop_journal(m):
            m["row_counts"].pop("url_keys")
            m["row_counts"].pop("edge_keys")
        rewrite_manifests(drop_journal)

        for use_ray in (False, True):
            with pytest.raises(ValueError, match="no key journal") as err:
                LinkChecker(CheckOptions(paths=fixture.seeds,
                                         fetch_concurrency=2,
                                         **fixture.options),
                            fixture.documents, fixture.http_map,
                            use_ray=use_ray).check(resume_from=ck)
            assert ck in str(err.value)


class TestCheckpointLineage:
    """One checkpoint format for every executor: seen state travels as
    the key journal alone."""

    @staticmethod
    def check_lineage(ck, res, expected_seen):
        import os

        from linkinator_ray import urlkit
        from linkinator_ray.state import checkpoint as ckpt
        rounds = sorted(d for d in os.listdir(ck) if d.startswith("round_"))
        for d in rounds:
            assert not [n for n in os.listdir(os.path.join(ck, d))
                        if n.startswith(("seen_shard_", "edge_shard_"))]
        per_round = [np.frombuffer(
            ckpt.load_round(ck, r)[1]["url_keys"]["data"][0].as_py(),
            dtype=np.uint64) for r in range(1, len(rounds) + 1)]
        union, edges, routes = ckpt.load_key_journal(ck, len(rounds))
        # every key sits in exactly one round's journal
        assert sum(len(k) for k in per_round) == len(union)
        assert len(np.unique(union)) == len(union)
        assert len(union) == res.stats["seen_urls"] == expected_seen
        urls = sorted({r["url"] for r in res.results.to_pylist()})
        assert set(union.tolist()) == set(
            urlkit.hash64_array(urls).tolist())
        assert len(edges) and len(np.unique(edges)) == len(edges)
        # an edge routes by its child URL, which the URL journal holds
        assert np.isin(routes, union).all()

    def test_rounds_journal_lineage(self, tmp_path):
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=200)
        ck = str(tmp_path / "ck")
        res = LinkChecker(CheckOptions(paths=seeds, recurse=True,
                                       checkpoint_dir=ck),
                          docs, [], multi_host=True).check()
        assert res.stats["rounds"] >= 3
        self.check_lineage(ck, res, expected_seen)

    @staticmethod
    def with_final_epoch(checker, ck: str, seed_rows: int,
                         resumed_epoch: int = 0):
        """Make a mesh ``checker`` snapshot one more epoch after the
        crawl settles, so its journal covers every key whether or not a
        timed epoch fired mid-crawl. ``seed_rows`` and
        ``resumed_epoch``: the frontier rows and the epoch the mesh
        starts from."""
        import os
        body, finish = checker._run_mesh_body, checker._finish

        def run_body(nodes, num_actors, *rest):
            def final_epoch(*args):
                done = os.listdir(ck) if os.path.isdir(ck) else []
                epoch = max([int(d.split("_")[1]) for d in done
                             if d.startswith("round_")],
                            default=resumed_epoch)
                checker._mesh_checkpoint(nodes, epoch + 1, num_actors,
                                         seed_rows)
                return finish(*args)
            checker._finish = final_epoch
            return body(nodes, num_actors, *rest)
        checker._run_mesh_body = run_body
        return checker

    def test_mesh_journal_lineage(self, ray_session, tmp_path):
        """The mesh snapshots one more epoch after the crawl settles, so
        the journal covers every key; whether a timed epoch fired
        mid-crawl does not change what the test asserts."""
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=200)
        ck = str(tmp_path / "meshck")
        checker = self.with_final_epoch(LinkChecker(
            CheckOptions(paths=seeds, recurse=True,
                         fetch_concurrency=2, checkpoint_dir=ck),
            docs, [], multi_host=True, use_ray=True), ck, len(seeds))
        res = checker.check()
        assert res.stats["executor"] == "mesh"
        self.check_lineage(ck, res, expected_seen)


class TestEdgeKeyInvariant:
    """The edge key is ``edge_key(url_hash, parent's url_hash)``, taken
    from the fetched page rows, so it is right only while every
    frontier row's ``url_hash`` is ``hash64(url)``: through URL
    rewrites, requeues, checkpoints and resumes, on both executors."""

    # pages /d10-/d19 are fetched as /d20-/d29: rewritten page rows
    REWRITE = [(r"/d1(\d)\.html$", r"/d2\1.html")]

    @staticmethod
    def corpus():
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, _, _ = synth_crawl_corpus(num_hosts=2,
                                               docs_per_host=200)
        return docs, seeds

    @classmethod
    def string_edges(cls, monkeypatch) -> set:
        """Every (url, parent) candidate edge of a local-rounds crawl,
        checking each candidate row's keys against its strings."""
        import re

        from linkinator_ray import urlkit
        from linkinator_ray.pipelines import crawl
        docs, seeds = cls.corpus()
        edges = set()
        dedup = crawl.dedup_candidates

        def checked(cand, *rest):
            urls = cand["url"].to_pylist()
            parents = cand["parent"].to_pylist()
            url_hash = urlkit.hash64_array(urls)
            assert (cand["url_hash"].to_numpy() == url_hash).all()
            assert (cand["edge_hash"].to_numpy() == urlkit.edge_key(
                url_hash, urlkit.hash64_array(parents))).all()
            edges.update(zip(urls, parents))
            return dedup(cand, *rest)
        with monkeypatch.context() as m:
            m.setattr(crawl, "dedup_candidates", checked)
            LinkChecker(CheckOptions(paths=seeds, recurse=True,
                                     url_rewrites=cls.REWRITE),
                        docs, [], multi_host=True).check()
        # the rewrite took: pages are fetched (and parent) as /d2x only
        assert any(re.search(r"/d1\d\.html$", u) for u, _ in edges)
        assert not any(re.search(r"/d1\d\.html$", p) for _, p in edges)
        return edges

    @staticmethod
    def check_checkpoint(ck: str, edges: set) -> None:
        """Every frontier row of every round has url_hash == hash64(url),
        and the journal chain's edge keys are the string edges' keys."""
        import os

        from linkinator_ray import urlkit
        from linkinator_ray.state import checkpoint as ckpt
        rounds = sorted(int(d.split("_")[1]) for d in os.listdir(ck)
                        if d.startswith("round_"))
        for r in rounds:
            manifest, tables = ckpt.load_round(ck, r)
            frontier = tables["frontier"]
            assert (frontier["url_hash"].to_numpy() == urlkit.hash64_array(
                frontier["url"].to_pylist())).all()
        first = manifest["extra"]["journal_from"]
        _, edge_keys, _ = ckpt.load_key_journal(ck, rounds[-1], first)
        urls, parents = zip(*edges)
        want = urlkit.edge_key(urlkit.hash64_array(urls),
                               urlkit.hash64_array(parents))
        assert len(edge_keys) == len(edges)
        assert set(edge_keys.tolist()) == set(want.tolist())

    def test_rounds_edge_keys_follow_url_hashes(self, tmp_path,
                                                monkeypatch):
        """Local rounds, stopped after round 2 and resumed into another
        checkpoint directory (whose chain journals every replayed key)."""
        edges = self.string_edges(monkeypatch)
        docs, seeds = self.corpus()
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        base = dict(paths=seeds, recurse=True, url_rewrites=self.REWRITE)
        LinkChecker(CheckOptions(**base, checkpoint_dir=first, max_rounds=2),
                    docs, [], multi_host=True).check()
        LinkChecker(CheckOptions(**base, checkpoint_dir=second), docs, [],
                    multi_host=True).check(resume_from=first)
        self.check_checkpoint(second, edges)

    def test_mesh_edge_keys_follow_url_hashes(self, ray_session, tmp_path,
                                              monkeypatch):
        """The mesh from the seeds, and the mesh resuming a local-rounds
        checkpoint: each journals exactly the string edges' keys."""
        edges = self.string_edges(monkeypatch)
        docs, seeds = self.corpus()
        base = dict(paths=seeds, recurse=True, url_rewrites=self.REWRITE,
                    fetch_concurrency=2)
        ck = str(tmp_path / "mesh")
        TestCheckpointLineage.with_final_epoch(LinkChecker(
            CheckOptions(**base, checkpoint_dir=ck), docs, [],
            multi_host=True, use_ray=True), ck, len(seeds)).check()
        self.check_checkpoint(ck, edges)

        from linkinator_ray.state import checkpoint as ckpt
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        LinkChecker(CheckOptions(**base, checkpoint_dir=first, max_rounds=2),
                    docs, [], multi_host=True).check()
        # a resumed mesh starts from the checkpoint's frontier
        restored = ckpt.load_round(first, 2)[1]["frontier"].num_rows
        res = TestCheckpointLineage.with_final_epoch(LinkChecker(
            CheckOptions(**base, checkpoint_dir=second), docs, [],
            multi_host=True, use_ray=True), second, restored, 2) \
            .check(resume_from=first)
        assert res.stats["executor"] == "mesh"
        self.check_checkpoint(second, edges)


class TestMeshResultsSpill:
    def test_node_local_results_spill(self, ray_session, tmp_path):
        """With results_dir set, mesh nodes hand every result row to the
        driver with their polls, and the driver is the one writer of
        the parquet parts, as in local rounds: ``on_results`` and
        'link' see every row, every part is the driver's, the union of
        the parts and the final in-memory results equals a no-spill
        run, and BROKEN totals stay correct."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=300)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2)
        full = LinkChecker(CheckOptions(**base), docs, [],
                           multi_host=True, use_ray=True).check()

        res_dir = str(tmp_path / "meshres")
        handed, links = [], []
        checker = LinkChecker(
            CheckOptions(**base, results_dir=res_dir,
                         results_flush_rows=50, batch_size=64),
            docs, [], multi_host=True, use_ray=True,
            on_results=lambda t: handed.append(t.num_rows))
        spilled = checker.on("link", links.append).check()
        parts = sorted(os.listdir(res_dir))
        assert parts, "expected spilled parquet parts"
        assert all(p.startswith("part_00_") for p in parts), parts
        assert sum(handed) == full.results.num_rows
        assert len(links) == full.results.num_rows

        tables = [pq.read_table(os.path.join(res_dir, p)) for p in parts]
        all_rows = pa.concat_tables(
            tables + [spilled.results.select(tables[0].column_names)])

        def key(table):
            return {(r["url"], r["state"], r["status"])
                    for r in table.to_pylist()}
        assert key(all_rows) == key(full.results)
        assert spilled.passed == full.passed
        assert spilled.stats["seen_urls"] == expected_seen
        # BROKEN accounting counts the spilled rows too
        assert spilled.stats["broken"] == full.stats["broken"]

    def test_spilled_fragment_rows_count_as_broken(self, ray_session,
                                                   tmp_path):
        """A missing fragment's BROKEN row is not a frontier row; spilled
        to ``results_dir`` on the mesh, it still counts in
        ``stats["broken"]`` and fails the check, as it does in memory."""
        fixture = fx.fragments()

        def run(**kw):
            return LinkChecker(
                CheckOptions(paths=fixture.seeds, **fixture.options, **kw),
                fixture.documents, fixture.http_map, use_ray=True).check()
        full = run()
        assert not full.passed and full.stats["broken"] > 0
        spilled = run(results_dir=str(tmp_path / "res"),
                      results_flush_rows=1)
        assert spilled.passed == full.passed
        assert spilled.stats["broken"] == full.stats["broken"]


class TestResumeHardening:
    """Round-4 review fixes: stale spill pruning, deferral deadlines
    surviving a Ray resume, cross-mode (mesh checkpoint -> driver)
    resume, and no caller-opts mutation."""

    def test_prune_stale_spill_parts(self, tmp_path):
        """Parts spilled AFTER the checkpoint being resumed (part index
        >= spill_part) are deleted, and so is every part of another
        writer than the driver (only earlier versions' mesh nodes wrote
        those); pre-checkpoint driver parts and foreign files stay;
        orphan .tmp files always go."""
        import os

        from linkinator_ray.pipelines.crawl import prune_stale_spill_parts
        d = tmp_path / "res"
        d.mkdir()
        names = [
            "part_00_00000.parquet", "part_00_00001.parquet",
            "part_00_00002.parquet",         # stale: >= spill_part 2
            "part_01_00000.parquet",         # stale: not the driver's
            "part_01_00001.parquet",         # stale: not the driver's
            "part_06_00000.parquet",         # stale: not the driver's
            "part_00_00009.parquet.tmp",     # orphan tmp
            "part_00_00001.parquet.tmp",     # orphan tmp below the floor
            "other.txt",
        ]
        for n in names:
            (d / n).write_bytes(b"x")
        prune_stale_spill_parts(str(d), 2)
        assert sorted(os.listdir(d)) == [
            "other.txt", "part_00_00000.parquet", "part_00_00001.parquet"]

    def test_shrink_resume_carries_node_floors(self, ray_session,
                                               tmp_path):
        """Double-crash with a mesh SHRINK in between: run A (2 nodes)
        crashes after its first epoch checkpoint, run B resumes with 1
        node and crashes after its first, and run C resumes again and
        finishes. The driver writes every results part, so each
        manifest carries one part floor (``spill_part``) and no
        per-node floors, every part is ``part_00_*``, and the final
        sets equal a clean run."""
        import json
        import os

        import pyarrow.parquet as pq

        from linkinator_ray.pipelines import crawl as crawl_mod
        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=400)
        base = dict(paths=seeds, recurse=True)
        full = LinkChecker(CheckOptions(**base, fetch_concurrency=2),
                           docs, [], multi_host=True, use_ray=True).check()

        ck = str(tmp_path / "meshck")
        res_dir = str(tmp_path / "meshres")
        orig = crawl_mod.LinkChecker._mesh_checkpoint

        def make_bomb(counter):
            def bomb(self, nodes, epoch, num_actors, seed_rows):
                orig(self, nodes, epoch, num_actors, seed_rows)
                counter["n"] += 1
                if counter["n"] >= 1:
                    raise KeyboardInterrupt
            return bomb

        def newest_manifest():
            rounds = sorted(d for d in os.listdir(ck)
                            if d.startswith("round_")
                            and not d.endswith(".tmp"))
            with open(os.path.join(ck, rounds[-1], "manifest.json")) as f:
                return json.load(f)

        # run A: 2 nodes, crash after the first epoch checkpoint
        run_a = LinkChecker(
            CheckOptions(**base, fetch_concurrency=2, checkpoint_dir=ck,
                         checkpoint_interval_s=0.2, batch_size=64,
                         results_dir=res_dir, results_flush_rows=50),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.02)
        run_a._mesh_checkpoint = make_bomb({"n": 0}).__get__(run_a)
        try:
            run_a.check()
        except KeyboardInterrupt:
            pass
        assert "node_spill_parts" not in newest_manifest()["extra"]

        # run B: SHRINK to 1 node, crash after its first checkpoint
        run_b = LinkChecker(
            CheckOptions(**base, fetch_concurrency=1, checkpoint_dir=ck,
                         checkpoint_interval_s=0.2, batch_size=64,
                         results_dir=res_dir, results_flush_rows=50),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.02)
        run_b._mesh_checkpoint = make_bomb({"n": 0}).__get__(run_b)
        try:
            run_b.check(resume_from=ck)
        except KeyboardInterrupt:
            pass
        assert "node_spill_parts" not in newest_manifest()["extra"]

        # run C: resume again (1 node), run to completion
        run_c = LinkChecker(
            CheckOptions(**base, fetch_concurrency=1, checkpoint_dir=ck,
                         results_dir=res_dir, results_flush_rows=50),
            docs, [], multi_host=True, use_ray=True)
        final = run_c.check(resume_from=ck)

        parts = sorted(os.listdir(res_dir))
        assert all(p.startswith("part_00_") for p in parts), parts
        tables = [pq.read_table(os.path.join(res_dir, p)) for p in parts]
        cols = ["url", "state", "status"]
        rows = [final.results.select(cols)] \
            + [t.select(cols) for t in tables]

        def key(table):
            return {(r["url"], r["state"], r["status"])
                    for r in table.to_pylist()}
        got = set().union(*(key(t) for t in rows))
        assert got == key(full.results)
        assert final.stats["seen_urls"] == expected_seen

    def test_check_does_not_mutate_caller_options(self):
        """check() must leave the caller's CheckOptions untouched (the
        tail flush used to zero results_flush_rows; markdown auto-detect
        used to stick) so the same object reruns identically."""
        import dataclasses as dc

        fixture = fx.repeated_broken_link()
        opts = CheckOptions(paths=fixture.seeds, **fixture.options)
        before = dc.asdict(
            dc.replace(opts, links_to_skip=[], fragments_to_skip=[]))
        r1 = LinkChecker(opts, fixture.documents, fixture.http_map).check()
        after = dc.asdict(
            dc.replace(opts, links_to_skip=[], fragments_to_skip=[]))
        assert after == before
        r2 = LinkChecker(opts, fixture.documents, fixture.http_map).check()

        def key(res):
            return {(r["url"], r["state"], r["status"], r["parent"])
                    for r in res.results.to_pylist()}
        assert key(r1) == key(r2)
        assert r1.passed == r2.passed

    def test_pipelined_resume_honors_retry_deadline(self, ray_session,
                                                    tmp_path):
        """A local-rounds checkpoint snapshotted mid-retry-backoff
        carries the row's not_before deadline on the rounds' fake clock;
        a Ray check resumes it on the mesh, which moves the deadline
        onto the wall clock with the 3 s the Retry-After had left, and
        parks the row until then instead of re-fetching it at once. The
        nodes continue the checkpoint's scripted sequences: the parked
        requests get their 200s, not a replayed 429, so the resumed
        request log is the tail of an uninterrupted run's."""
        import collections
        import time

        from linkinator_ray.state.clock import FakeClock

        fixture = fx.retry_fixture()
        full = LinkChecker(
            CheckOptions(paths=fixture.seeds, **fixture.options),
            fixture.documents, fixture.http_map, clock=FakeClock()).check()
        ck = str(tmp_path / "retryck")
        partial = LinkChecker(
            CheckOptions(paths=fixture.seeds, checkpoint_dir=ck,
                         max_rounds=2, **fixture.options),
            fixture.documents, fixture.http_map, clock=FakeClock())
        part_res = partial.check()
        # the 429s were fetched and requeued with not_before = now + 3
        assert any(r["url"].startswith("http://slow.invalid/")
                   for r in part_res.results.to_pylist()) is False

        resumed_checker = LinkChecker(
            CheckOptions(paths=fixture.seeds, fetch_concurrency=1,
                         **fixture.options),
            fixture.documents, fixture.http_map, use_ray=True)
        retries = []
        resumed_checker.on("retry", retries.append)
        t0 = time.perf_counter()
        resumed = resumed_checker.check(resume_from=ck)
        wall = time.perf_counter() - t0
        assert resumed.stats["executor"] == "mesh"
        states = {r["url"]: r["state"] for r in resumed.results.to_pylist()}
        assert states["http://slow.invalid/1"] == "OK"
        assert states["http://slow.invalid/3"] == "OK"
        assert resumed.passed
        # the deadline was honored: 3 s of Retry-After were left
        assert wall >= 2.5
        # and the scripts went on from where the checkpoint left them
        assert not retries
        assert collections.Counter(resumed.call_log) == collections.Counter(
            full.call_log[len(part_res.call_log):])

    def test_mesh_checkpoint_carries_scripted_sequences(self, ray_session,
                                                        tmp_path):
        """A mesh epoch taken while the retry fixture's 429s wait out
        their Retry-After saves the nodes' sequence counters; local
        rounds resuming it send the parked requests once more and get
        their seq-1 200s, not the seq-0 429s again. Sixty more pages,
        fetched one at a time at 50 ms in pumps of 16 rows, keep the
        mesh busy (and taking epochs) through the 3 s wait."""
        import os

        import pyarrow.parquet as pq

        from linkinator_ray.state.clock import FakeClock

        fixture = fx.retry_fixture()
        pages = [f"p{i}.html" for i in range(60)]
        index, subpage = fixture.documents.to_pylist()
        docs = fx.docs_table(
            fx.doc(index["doc_id"], *index["spans"],
                   *(fx.span("anchor", p, p) for p in pages)),
            subpage, *(fx.doc(f"retry/{p}") for p in pages))
        ck = str(tmp_path / "meshretry")
        partial = LinkChecker(
            CheckOptions(paths=fixture.seeds, checkpoint_dir=ck,
                         checkpoint_interval_s=0.25, fetch_concurrency=1,
                         concurrency=1, batch_size=4, **fixture.options),
            docs, fixture.http_map, use_ray=True,
            transport_latency_s=0.05)
        orig = partial._mesh_checkpoint

        def stop_once_scripts_ran(nodes, epoch, num_actors, seed_rows):
            orig(nodes, epoch, num_actors, seed_rows)
            seq = pq.read_table(os.path.join(
                ck, f"round_{epoch:06d}", "seq_counters.parquet"))
            if "http://slow.invalid/1" in seq["url"].to_pylist():
                raise KeyboardInterrupt
        partial._mesh_checkpoint = stop_once_scripts_ran
        with pytest.raises(KeyboardInterrupt):
            partial.check()

        resumed = LinkChecker(
            CheckOptions(paths=fixture.seeds, **fixture.options),
            docs, fixture.http_map,
            clock=FakeClock()).check(resume_from=ck)
        assert resumed.stats["executor"] == "rounds"
        assert resumed.passed
        slow = [(u, s) for u, _, s in resumed.call_log
                if u.startswith("http://slow.invalid/")]
        assert ("http://slow.invalid/1", 200) in slow
        assert ("http://slow.invalid/3", 200) in slow
        assert all(s == 200 for _, s in slow)

    def test_driver_resume_of_mesh_checkpoint(self, ray_session, tmp_path):
        """A mesh-written checkpoint resumed on local rounds: membership
        rebuilds from the key journal into the driver's shard layout,
        deadlines move onto the rounds' clock — final sets must match a
        clean run."""
        import os

        from linkinator_ray.sources.synth import synth_crawl_corpus
        docs, seeds, expected_seen, _ = synth_crawl_corpus(
            num_hosts=2, docs_per_host=400)
        base = dict(paths=seeds, recurse=True, fetch_concurrency=2)
        full = LinkChecker(CheckOptions(**base), docs, [],
                           multi_host=True).check()

        ck = str(tmp_path / "crossck")
        # 20 ms injected latency: without it a fast machine drains the
        # whole mesh before the first 0.2 s checkpoint epoch fires and
        # the bomb never goes off (results are latency-independent)
        partial = LinkChecker(
            CheckOptions(**base, checkpoint_dir=ck,
                         checkpoint_interval_s=0.2, batch_size=64),
            docs, [], multi_host=True, use_ray=True,
            transport_latency_s=0.02)
        orig = partial._mesh_checkpoint
        calls = {"n": 0}

        def bomb(nodes, epoch, num_actors, seed_rows):
            orig(nodes, epoch, num_actors, seed_rows)
            calls["n"] += 1
            if calls["n"] >= 1:
                raise KeyboardInterrupt
        partial._mesh_checkpoint = bomb
        try:
            partial.check()
        except KeyboardInterrupt:
            pass
        assert os.path.isdir(ck) and os.listdir(ck), "no mesh checkpoint"

        # resume without Ray: local rounds over the mesh epoch
        resumed = LinkChecker(CheckOptions(**base), docs, [],
                              multi_host=True).check(resume_from=ck)
        assert resumed.stats["executor"] == "rounds"

        def key(res):
            return {(r["url"], r["state"], r["status"])
                    for r in res.results.to_pylist()}
        assert key(resumed) == key(full)
        assert resumed.stats["seen_urls"] == expected_seen
