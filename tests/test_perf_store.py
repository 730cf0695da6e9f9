"""Tests of the persistent point cache and its runner integration.

The store's contract: a point any previous run finished is never
re-simulated (across processes — everything lives on disk); a config
change can never serve stale numbers (content addressing by
fingerprint); corruption reads as a miss, never as wrong data; disk
usage stays under ``REPRO_POINT_CACHE_BYTES`` via LRU eviction; and
degraded stand-ins never outlive the run that produced them.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    cache_info,
    clear_cache,
    config_fingerprint,
    run_point,
    sweep,
)
from repro.obs import metrics
from repro.perf import PointStore, StoreInfo
from repro.resilience import PointBudget, faults
from repro.resilience.integrity import QUARANTINE_DIR

KEY = ("JACOBI", "Orig", 40)


def counter(reg, name):
    return sum(c["value"] for c in reg.snapshot()["counters"]
               if c["name"] == name)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = PointStore(tmp_path / "cache")
        payload = {"x": 1.5, "tile": [4, 6]}
        assert store.get("fp", KEY) is None
        store.put("fp", KEY, payload)
        assert store.get("fp", KEY) == payload

    def test_persists_across_instances(self, tmp_path):
        PointStore(tmp_path / "c").put("fp", KEY, {"x": 1})
        assert PointStore(tmp_path / "c").get("fp", KEY) == {"x": 1}

    def test_fingerprint_isolation(self, tmp_path):
        store = PointStore(tmp_path / "c")
        store.put("fp-a", KEY, {"x": 1})
        assert store.get("fp-b", KEY) is None
        store.put("fp-b", KEY, {"x": 2})
        assert store.get("fp-a", KEY) == {"x": 1}
        assert store.info().fingerprints == 2

    def test_key_collision_resistance(self, tmp_path):
        # Keys that sanitize to the same human prefix must not collide.
        store = PointStore(tmp_path / "c")
        store.put("fp", ("JACOBI", "Orig", 40), {"x": 1})
        store.put("fp", ("JACOBI", "Orig/40", None), {"x": 2})
        assert store.get("fp", ("JACOBI", "Orig", 40)) == {"x": 1}
        assert store.get("fp", ("JACOBI", "Orig/40", None)) == {"x": 2}

    def test_corrupt_entry_reads_as_miss_and_is_dropped(self, tmp_path):
        store = PointStore(tmp_path / "c")
        store.put("fp", KEY, {"x": 1})
        entry, = (tmp_path / "c").rglob("*.json")
        entry.write_text("{ not json")
        assert store.get("fp", KEY) is None
        assert not entry.exists()

    def test_mismatched_key_entry_is_rejected(self, tmp_path):
        store = PointStore(tmp_path / "c")
        store.put("fp", KEY, {"x": 1})
        entry, = (tmp_path / "c").rglob("*.json")
        rec = json.loads(entry.read_text())
        rec["key"] = ["JACOBI", "Orig", 99]
        entry.write_text(json.dumps(rec))
        assert store.get("fp", KEY) is None

    def test_entry_filed_under_another_fingerprint_quarantined(self,
                                                               tmp_path):
        """A CRC-valid entry copied into another configuration's
        directory must not be served as that configuration's numbers."""
        store = PointStore(tmp_path / "c")
        store.put("fp-a", KEY, {"x": 1})
        src = store._entry_path("fp-a", KEY)
        dst = store._entry_path("fp-b", KEY)
        dst.parent.mkdir()
        dst.write_text(src.read_text())
        assert store.get("fp-b", KEY) is None
        assert not dst.exists()
        assert len(list((tmp_path / "c" / QUARANTINE_DIR)
                        .glob("*.meta.json"))) == 1
        assert store.get("fp-a", KEY) == {"x": 1}  # the original serves

    def test_non_directory_root_rejected(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("")
        with pytest.raises(ConfigurationError, match="not a directory"):
            PointStore(f)

    def test_clear_removes_everything(self, tmp_path):
        store = PointStore(tmp_path / "c")
        store.put("fp-a", KEY, {"x": 1})
        store.put("fp-b", KEY, {"x": 2})
        assert store.clear() == 2
        assert store.info() == StoreInfo(root=str(tmp_path / "c"),
                                         entries=0, bytes=0,
                                         max_bytes=store.max_bytes,
                                         fingerprints=0)

    def test_metrics_counted(self, tmp_path):
        store = PointStore(tmp_path / "c")
        with metrics.collect() as reg:
            store.get("fp", KEY)
            store.put("fp", KEY, {"x": 1})
            store.get("fp", KEY)
        assert counter(reg, "repro.perf.point_cache_misses") == 1
        assert counter(reg, "repro.perf.point_cache_puts") == 1
        assert counter(reg, "repro.perf.point_cache_hits") == 1


class TestEviction:
    def put_n(self, store, n):
        for i in range(n):
            store.put("fp", ("K", "S", i), {"pad": "x" * 200, "i": i})

    def test_lru_eviction_under_byte_budget(self, tmp_path):
        store = PointStore(tmp_path / "c", max_bytes=1200)
        self.put_n(store, 8)
        info = store.info()
        assert info.bytes <= 1200
        assert 0 < info.entries < 8
        # The most recent entry always survives.
        assert store.get("fp", ("K", "S", 7)) is not None

    def test_get_refreshes_lru_position(self, tmp_path):
        import os

        unbounded = PointStore(tmp_path / "c", max_bytes=0)
        self.put_n(unbounded, 3)
        entries = unbounded._entries()
        size = max(s for _, s, _ in entries)
        # Age the entries artificially so LRU order is deterministic
        # even on coarse filesystem clocks: i=0 becomes the oldest.
        for _, _, path in entries:
            i = json.loads(path.read_text())["payload"]["i"]
            os.utime(path, (1.0 + i, 1.0 + i))
        store = PointStore(tmp_path / "c", max_bytes=3 * size + 50)
        # Reading entry 0 refreshes its mtime, so the over-budget put
        # below must evict entry 1 (now the least recently used).
        assert store.get("fp", ("K", "S", 0)) is not None
        store.put("fp", ("K", "S", 99), {"pad": "x" * 200, "i": 99})
        assert store.get("fp", ("K", "S", 0)) is not None
        remaining = {json.loads(p.read_text())["payload"]["i"]
                     for _, _, p in store._entries()}
        assert 1 not in remaining

    def test_env_budget_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_CACHE_BYTES", "1000")
        store = PointStore(tmp_path / "c")
        assert store.max_bytes == 1000
        self.put_n(store, 8)
        assert store.info().bytes <= 1000

    def test_nonpositive_env_budget_means_unbounded(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_POINT_CACHE_BYTES", "0")
        store = PointStore(tmp_path / "c")
        assert store.max_bytes is None
        self.put_n(store, 8)
        assert store.info().entries == 8

    @pytest.mark.parametrize("bad", ["lots", "1e6", "256MB"])
    def test_malformed_env_budget_is_a_configuration_error(
            self, tmp_path, monkeypatch, bad):
        monkeypatch.setenv("REPRO_POINT_CACHE_BYTES", bad)
        with pytest.raises(ConfigurationError,
                           match="REPRO_POINT_CACHE_BYTES"):
            PointStore(tmp_path / "c")
        # An explicit budget does not consult the variable.
        assert PointStore(tmp_path / "c", max_bytes=0).max_bytes is None

    def test_eviction_metric(self, tmp_path):
        store = PointStore(tmp_path / "c", max_bytes=1200)
        with metrics.collect() as reg:
            self.put_n(store, 8)
        evicted = counter(reg, "repro.perf.point_cache_evictions")
        assert evicted == 8 - store.info().entries > 0


class TestRunnerIntegration:
    def test_warm_point_served_from_store(self, tmp_path, tiny_config):
        store = PointStore(tmp_path / "c")
        cold = run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        clear_cache()
        inj = faults.FaultInjector()
        with faults.inject(inj), metrics.collect() as reg:
            warm = run_point(*KEY, tiny_config,
                             policy=PointPolicy(store=store))
        assert inj.calls("simulate") == 0
        assert counter(reg, "repro.perf.point_cache_hits") == 1
        assert warm == cold

    def test_store_accepts_path_or_instance(self, tmp_path, tiny_config):
        res = sweep("JACOBI", ["Orig"], [40], tiny_config,
                    options=SweepOptions(point_cache=tmp_path / "c"))
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = sweep("JACOBI", ["Orig"], [40], tiny_config,
                          options=SweepOptions(
                              point_cache=PointStore(tmp_path / "c")))
        assert inj.calls("simulate") == 0
        assert again == res

    def test_warm_sweep_identical_with_hits(self, tmp_path, tiny_config):
        opts = SweepOptions(point_cache=tmp_path / "c")
        cold = sweep("JACOBI", ["Orig", "GcdPad"], [40, 64], tiny_config,
                     options=opts)
        with metrics.collect() as reg:
            warm = sweep("JACOBI", ["Orig", "GcdPad"], [40, 64], tiny_config,
                         options=opts)
        assert warm == cold
        assert counter(reg, "repro.perf.point_cache_hits") == 4

    def test_config_change_misses(self, tmp_path, tiny_config, tiny_l1,
                                  tiny_l2):
        store = PointStore(tmp_path / "c")
        run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        other = ExperimentConfig(l1=tiny_l1, l2=tiny_l2, nk=5)
        assert config_fingerprint(other) != config_fingerprint(tiny_config)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            run_point(*KEY, other, policy=PointPolicy(store=store))
        assert inj.calls("simulate") > 0

    def test_degraded_results_never_stored(self, tmp_path, tiny_config):
        store = PointStore(tmp_path / "c")
        r = run_point(*KEY, tiny_config,
                      policy=PointPolicy(store=store,
                                         budget=PointBudget(max_refs=10)))
        assert r.degraded
        assert store.info().entries == 0

    def test_store_hit_promoted_into_journal(self, tmp_path, tiny_config):
        from repro.experiments.runner import open_checkpoint

        store = PointStore(tmp_path / "c")
        run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        ckpt = open_checkpoint(tmp_path / "ck", tiny_config)
        run_point(*KEY, tiny_config,
                  policy=PointPolicy(store=store, checkpoint=ckpt))
        assert ckpt.get(config_fingerprint(tiny_config), KEY) is not None

    def test_parallel_sweep_served_from_store(self, tmp_path, tiny_config):
        from repro.resilience.pool import available

        if not available():
            pytest.skip("multiprocessing unavailable")
        opts = SweepOptions(point_cache=tmp_path / "c", parallel=2)
        cold = sweep("JACOBI", ["Orig", "GcdPad"], [40], tiny_config,
                     options=opts)
        with metrics.collect() as reg:
            warm = sweep("JACOBI", ["Orig", "GcdPad"], [40], tiny_config,
                         options=opts)
        assert warm == cold
        assert counter(reg, "repro.perf.point_cache_hits") == 2
        assert counter(reg, "repro.runner.points") == 2  # all mode="store"


class TestCacheAdmin:
    def test_cache_info_keeps_lru_shape(self, tiny_config):
        run_point(*KEY, tiny_config)
        run_point(*KEY, tiny_config)
        info = cache_info()
        assert info.hits >= 1 and info.currsize >= 1
        assert info.maxsize is not None
        assert info.store is None

    def test_cache_info_with_store(self, tmp_path, tiny_config):
        run_point(*KEY, tiny_config,
                  policy=PointPolicy(store=PointStore(tmp_path / "c")))
        info = cache_info(tmp_path / "c")
        assert info.store.entries == 1
        assert "1 entries" in info.store.summary()

    def test_clear_cache_clears_both_layers(self, tmp_path, tiny_config):
        store = PointStore(tmp_path / "c")
        run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        run_point(*KEY, tiny_config)  # populate the memo too
        assert clear_cache(store) == 1
        assert cache_info(store).currsize == 0
        assert store.info().entries == 0
        inj = faults.FaultInjector()
        with faults.inject(inj):
            run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        assert inj.calls("simulate") > 0  # nothing served stale


class TestPoisonedEntryRegression:
    """A semantically invalid entry must be quarantined, not skipped.

    Regression guard: an entry that parses and checksums but fails the
    runner's payload validation used to be merely *skipped* — it stayed
    on disk and re-read as a miss forever, because degraded
    re-simulations are never stored and a healthy recompute writes the
    same path only after the poisoned bytes are gone.
    """

    def test_store_lookup_quarantines_poisoned_entry(self, tmp_path,
                                                     tiny_config):
        from repro.experiments.runner import _store_lookup
        from repro.resilience.integrity import QUARANTINE_DIR

        store = PointStore(tmp_path / "cache")
        fp = config_fingerprint(tiny_config)
        store.put(fp, KEY, {"bogus": 1})  # checksums fine, wrong shape
        path = store._entry_path(fp, KEY)
        assert path.exists()
        assert _store_lookup(store, fp, KEY) is None
        assert not path.exists()  # the regression: it used to linger
        metas = list((store.root / QUARANTINE_DIR).glob("*.meta.json"))
        assert metas
        assert "payload validation" in metas[0].read_text()

    def test_wrong_identity_entry_quarantined(self, tmp_path, tiny_config):
        from repro.experiments.runner import _store_lookup

        store = PointStore(tmp_path / "cache")
        fp = config_fingerprint(tiny_config)
        honest = run_point(*KEY, tiny_config)
        from dataclasses import asdict

        other = ("RESID", "Pad", 48)
        store.put(fp, other, asdict(honest))  # identity != key
        assert _store_lookup(store, fp, other) is None
        assert not store._entry_path(fp, other).exists()

    def test_poisoned_entry_replaced_by_next_run(self, tmp_path,
                                                 tiny_config):
        store = PointStore(tmp_path / "cache")
        fp = config_fingerprint(tiny_config)
        store.put(fp, KEY, {"bogus": 1})
        res = run_point(*KEY, tiny_config, policy=PointPolicy(store=store))
        assert not res.degraded
        inj = faults.FaultInjector()
        with faults.inject(inj):
            again = run_point(*KEY, tiny_config,
                              policy=PointPolicy(store=store))
        assert inj.calls("simulate") == 0  # healthy entry now serves
        assert again == res

    def test_discard_missing_entry_is_noop(self, tmp_path):
        store = PointStore(tmp_path / "cache")
        assert store.discard("fp", KEY, reason="r") is False
