"""PagedKVCache: block tables, page growth, explicit transfer charging."""

import numpy as np
import pytest

from repro.decode import CacheError, PagedKVCache, h2d_seconds
from repro.graph.memory import arena_stats
from repro.upmem.config import UpmemConfig


def make_cache(**kwargs) -> PagedKVCache:
    defaults = dict(d_model=8, layers=2, page_tokens=4, max_pages=16)
    defaults.update(kwargs)
    cache = PagedKVCache(**defaults)
    cache.add_sequence("s")
    return cache


def rows(cache: PagedKVCache, value: float = 1.0):
    return [
        (
            np.full((cache.d_model,), value, dtype=np.float32),
            np.full((cache.d_model,), -value, dtype=np.float32),
        )
        for _ in range(cache.layers)
    ]


class TestPaging:
    def test_fresh_sequence_is_empty(self):
        cache = make_cache()
        assert cache.length("s") == 0
        assert cache.capacity("s") == 0
        assert cache.block_table("s", 0) == ()

    def test_pages_allocate_only_at_boundaries(self):
        cache = make_cache()
        for i in range(9):
            events = cache.append("s", rows(cache, float(i)))
            allocated = [e for e in events if e.pages_allocated]
            if i % cache.page_tokens == 0:
                # Boundary: one new page per layer.
                assert len(allocated) == cache.layers
            else:
                assert allocated == []
        # 9 tokens at 4/page: 3 pages per layer, capacity 12.
        assert cache.capacity("s") == 12
        assert len(cache.block_table("s", 0)) == 3
        assert len(cache.block_table("s", 1)) == 3

    def test_allocation_order_is_deterministic(self):
        a, b = make_cache(), make_cache()
        for i in range(6):
            a.append("s", rows(a, float(i)))
            b.append("s", rows(b, float(i)))
        assert a.block_table("s", 0) == b.block_table("s", 0)
        assert a.block_table("s", 1) == b.block_table("s", 1)

    def test_pool_exhaustion_raises(self):
        cache = make_cache(max_pages=2)  # one page per layer
        for i in range(4):
            cache.append("s", rows(cache, float(i)))
        with pytest.raises(CacheError, match="exhausted"):
            cache.append("s", rows(cache))

    def test_pool_running_dry_after_a_layer_changes_nothing(self):
        """Three pages for two layers: the second page boundary finds
        one page free, enough for layer 0 only, and is refused whole."""
        cache = make_cache(page_tokens=2, max_pages=3)
        for i in range(2):
            cache.append("s", rows(cache, float(i)))
        tables = [cache.block_table("s", layer) for layer in range(2)]
        with pytest.raises(CacheError, match="exhausted"):
            cache.append("s", rows(cache))
        assert [cache.block_table("s", layer) for layer in range(2)] == tables
        assert cache.free_pages == 1
        assert cache.length("s") == 2 and cache.capacity("s") == 2
        assert cache.free_sequence("s") == 2 and cache.free_pages == 3

    def test_malformed_row_changes_nothing(self):
        """A bad row for the last layer refuses the append before layer
        0 takes a page or writes a row."""
        cache = make_cache()
        bad = rows(cache)
        bad[1] = (np.ones(cache.d_model - 3, dtype=np.float32), bad[1][1])
        with pytest.raises(ValueError):
            cache.append("s", bad)
        assert cache.free_pages == cache.max_pages
        assert cache.block_table("s", 0) == cache.block_table("s", 1) == ()
        assert cache.length("s") == 0 and cache.extension_events == 0

    def test_free_sequence_returns_pages(self):
        cache = make_cache()
        for i in range(5):
            cache.append("s", rows(cache, float(i)))
        assert cache.free_sequence("s") == 4  # 2 pages x 2 layers
        assert cache.stats()["pages_allocated"] == 0
        cache.add_sequence("s2")
        for i in range(5):
            cache.append("s2", rows(cache, float(i)))
        # Freed ids recycle lowest-first: same physical pages again.
        assert cache.block_table("s2", 0) == (0, 2)


class TestDenseViews:
    def test_dense_kv_round_trips_appended_rows(self):
        cache = make_cache()
        appended = []
        for i in range(6):
            r = rows(cache, float(i + 1))
            appended.append(r)
            cache.append("s", r)
        for layer in range(cache.layers):
            k, v = cache.dense_kv("s", layer)
            assert k.shape == (8, cache.d_model)  # capacity 8
            for pos, r in enumerate(appended):
                np.testing.assert_array_equal(k[pos], r[layer][0])
                np.testing.assert_array_equal(v[pos], r[layer][1])
            # Unwritten tail slots read deterministic zeros.
            assert not k[6:].any() and not v[6:].any()

    def test_fresh_sequence_reads_empty_planes(self):
        cache = make_cache()
        for layer in range(cache.layers):
            k, v = cache.dense_kv("s", layer)
            assert k.shape == v.shape == (0, cache.d_model)
            assert k.dtype == v.dtype == np.float32
        assert cache.attention_mask("s").shape == (0,)

    def test_dense_view_is_a_copy(self):
        cache = make_cache()
        cache.append("s", rows(cache, 1.0))
        k, _ = cache.dense_kv("s", 0)
        cache.append("s", rows(cache, 2.0))
        # The second append wrote the page in place; the materialized
        # view from before must not see it.
        assert not k[1].any()

    def test_attention_mask_tracks_length_and_capacity(self):
        cache = make_cache()
        for i in range(5):
            cache.append("s", rows(cache, float(i)))
        mask = cache.attention_mask("s")
        assert mask.shape == (8,)
        assert (mask[:5] == 0.0).all()
        assert np.isneginf(mask[5:]).all()


class TestCharging:
    def test_append_charges_k_and_v_rows(self):
        cfg = UpmemConfig()
        cache = make_cache(config=cfg)
        (e0, e1) = cache.append("s", rows(cache))
        expected_nbytes = 2 * cache.d_model * 4
        for e in (e0, e1):
            assert e.nbytes == expected_nbytes
            assert e.seconds == h2d_seconds(expected_nbytes, cfg)

    def test_h2d_seconds_matches_machine_constants(self):
        cfg = UpmemConfig()
        assert h2d_seconds(0, cfg) == cfg.xfer_call_overhead_s
        assert h2d_seconds(6_700_000_000, cfg) == pytest.approx(
            cfg.xfer_call_overhead_s + 1.0 / cfg.h2d_bandwidth_gbps * 6.7
        )

    def test_stats_use_shared_arena_vocabulary(self):
        cache = make_cache()
        for i in range(5):
            cache.append("s", rows(cache, float(i)))
        stats = cache.stats()
        # 5 cached tokens over 8 allocated: same numbers arena_stats
        # reports for any fixed-capacity arena.
        assert stats["cached_tokens"] == 5
        assert stats["token_capacity"] == 8
        expected = arena_stats(8, 5)
        assert stats["utilization"] == expected["utilization"]
        assert stats["fragmentation"] == expected["fragmentation"]
        assert stats["extension_events"] == 10  # 5 tokens x 2 layers
        assert stats["extension_bytes"] == 10 * 2 * cache.row_nbytes
        assert stats["extension_seconds"] == pytest.approx(
            10 * h2d_seconds(2 * cache.row_nbytes, cache.config)
        )


class TestValidation:
    def test_unknown_sequence(self):
        cache = make_cache()
        with pytest.raises(CacheError, match="unknown sequence"):
            cache.append("nope", rows(cache))
        with pytest.raises(CacheError, match="unknown sequence"):
            cache.length("nope")

    def test_duplicate_sequence(self):
        cache = make_cache()
        with pytest.raises(CacheError, match="already cached"):
            cache.add_sequence("s")

    def test_wrong_layer_count(self):
        cache = make_cache()
        with pytest.raises(CacheError, match="row pairs"):
            cache.append("s", rows(cache)[:1])

    def test_layer_out_of_range(self):
        cache = make_cache()
        with pytest.raises(CacheError, match="out of range"):
            cache.dense_kv("s", 7)

    @pytest.mark.parametrize(
        "sizes,match",
        [
            ({"d_model": 0}, "d_model/layers"),
            ({"layers": 0}, "d_model/layers"),
            ({"page_tokens": 0}, "page_tokens"),
            ({"layers": 4, "max_pages": 3}, "one page per layer"),
        ],
        ids=["d_model", "layers", "page_tokens", "max_pages"],
    )
    def test_bad_sizes_rejected_at_construction(self, sizes, match):
        args = dict(d_model=8, layers=2, page_tokens=4, max_pages=16)
        args.update(sizes)
        with pytest.raises(ValueError, match=match):
            PagedKVCache(**args)

    def test_unknown_sequence_named_by_every_reader(self):
        cache = make_cache()
        for read in (
            lambda: cache.free_sequence("nope"),
            lambda: cache.block_table("nope", 0),
            lambda: cache.capacity("nope"),
            lambda: cache.dense_kv("nope", 0),
        ):
            with pytest.raises(CacheError, match="unknown sequence 'nope'"):
                read()
        assert cache.free_pages == 16  # nothing was allocated on the way
