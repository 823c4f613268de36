"""Unit tests for metric sets: layout, generations, consistency, mirroring."""

import pytest
from hypothesis import given, strategies as st

from repro.core import sanitize
from repro.core.memory import Arena
from repro.core.metric import MetricDesc, MetricType
from repro.core.metric_set import MetricSet, SchemaMismatch
from repro.util.errors import ReproError


@pytest.fixture
def arena():
    return Arena(1 << 20)


def make_set(arena, n=3, name="node1/test", schema="test"):
    return MetricSet.create(
        name, schema, [(f"m{i}", MetricType.U64, 1) for i in range(n)], arena
    )


class TestMetricType:
    def test_sizes(self):
        assert MetricType.U8.size == 1
        assert MetricType.U64.size == 8
        assert MetricType.F32.size == 4
        assert MetricType.F64.size == 8

    def test_parse(self):
        assert MetricType.parse("u64") is MetricType.U64
        assert MetricType.parse("F32") is MetricType.F32

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            MetricType.parse("u128")

    def test_unsigned_clamp_wraps(self):
        assert MetricType.U8.clamp(256) == 0
        assert MetricType.U8.clamp(-1) == 255
        assert MetricType.U64.clamp(2**64 + 5) == 5

    def test_signed_clamp_wraps(self):
        assert MetricType.S8.clamp(127) == 127
        assert MetricType.S8.clamp(128) == -128

    def test_float_passthrough(self):
        assert MetricType.F64.clamp(1.5) == 1.5

    @given(st.integers(min_value=-(2**80), max_value=2**80))
    def test_u64_clamp_in_range(self, v):
        assert 0 <= MetricType.U64.clamp(v) < 2**64


class TestMetricDesc:
    def test_pack_unpack_roundtrip(self):
        d = MetricDesc("open#stats.snx11024", MetricType.U64, 7, 24)
        assert MetricDesc.unpack(d.pack()) == d

    def test_name_too_long_rejected(self):
        with pytest.raises(ValueError):
            MetricDesc("x" * 64, MetricType.U64, 0, 0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricDesc("", MetricType.U64, 0, 0)


class TestCreation:
    def test_card(self, arena):
        assert make_set(arena, n=5).card == 5

    def test_duplicate_metric_names_rejected(self, arena):
        with pytest.raises(ValueError):
            MetricSet.create("s", "t", [("a", MetricType.U64, 0),
                                        ("a", MetricType.U64, 0)], arena)

    def test_empty_metrics_rejected(self, arena):
        with pytest.raises(ValueError):
            MetricSet.create("s", "t", [], arena)

    def test_mixed_type_alignment(self, arena):
        s = MetricSet.create(
            "s", "t",
            [("a", MetricType.U8, 0), ("b", MetricType.U64, 0),
             ("c", MetricType.U16, 0)], arena,
        )
        offs = {d.name: d.data_offset for d in s.descs}
        assert offs["b"] % 8 == 0
        assert offs["c"] % 2 == 0

    def test_data_fraction_is_small_for_wide_sets(self, arena):
        # Paper §IV-B: data chunk ~10% of total set size.
        s = make_set(arena, n=200)
        assert 0.05 < s.data_fraction < 0.20

    def test_delete_releases_memory(self, arena):
        used0 = arena.used
        s = make_set(arena)
        assert arena.used > used0
        s.delete()
        assert arena.used == used0


class TestTransactions:
    def test_initial_state_inconsistent(self, arena):
        s = make_set(arena)
        assert not s.is_consistent
        assert s.dgn == 0

    def test_set_all_makes_consistent(self, arena):
        s = make_set(arena)
        s.set_all([1, 2, 3], timestamp=10.0)
        assert s.is_consistent
        assert s.timestamp == 10.0
        assert s.values() == [1, 2, 3]

    def test_dgn_increments_per_element(self, arena):
        s = make_set(arena, n=3)
        s.set_all([1, 2, 3], timestamp=1.0)
        assert s.dgn == 3
        s.set_all([4, 5, 6], timestamp=2.0)
        assert s.dgn == 6

    def test_consistent_flag_clear_mid_transaction(self, arena):
        s = make_set(arena)
        s.begin_transaction()
        s.set_value("m0", 42)
        assert not s.is_consistent
        s.end_transaction(1.0)
        assert s.is_consistent

    def test_nested_transaction_rejected(self, arena):
        s = make_set(arena)
        s.begin_transaction()
        with pytest.raises(ReproError):
            s.begin_transaction()

    def test_end_without_begin_rejected(self, arena):
        with pytest.raises(ReproError):
            make_set(arena).end_transaction(0.0)

    def test_get_by_name_and_index(self, arena):
        s = make_set(arena)
        s.set_all([7, 8, 9], timestamp=0.0)
        assert s.get("m1") == 8
        assert s.get(1) == 8

    def test_as_dict(self, arena):
        s = make_set(arena)
        s.set_all([1, 2, 3], timestamp=0.0)
        assert s.as_dict() == {"m0": 1, "m1": 2, "m2": 3}

    def test_wrong_value_count_rejected(self, arena):
        with pytest.raises(ValueError):
            make_set(arena, n=3).set_all([1], timestamp=0.0)

    def test_float_metrics(self, arena):
        s = MetricSet.create("s", "t", [("f", MetricType.F64, 0)], arena)
        s.set_all([3.25], timestamp=0.0)
        assert s.get("f") == 3.25


class TestMirroring:
    def test_meta_roundtrip(self, arena):
        src = make_set(arena, n=4)
        dst_arena = Arena(1 << 20)
        mirror = MetricSet.from_meta(src.meta_bytes(), dst_arena)
        assert mirror.name == src.name
        assert mirror.schema == src.schema
        assert mirror.card == src.card
        assert mirror.mgn == src.mgn
        assert [d.name for d in mirror.descs] == [d.name for d in src.descs]

    def test_data_transfer(self, arena):
        src = make_set(arena)
        src.set_all([10, 20, 30], timestamp=5.0)
        mirror = MetricSet.from_meta(src.meta_bytes(), Arena(1 << 20))
        mirror.apply_data(src.data_bytes())
        assert mirror.values() == [10, 20, 30]
        assert mirror.timestamp == 5.0
        assert mirror.dgn == src.dgn

    def test_torn_read_detectable(self, arena):
        src = make_set(arena)
        src.set_all([1, 2, 3], timestamp=1.0)
        src.begin_transaction()
        src.set_value("m0", 99)
        torn = src.data_bytes()  # mid-transaction raw read
        src.end_transaction(2.0)
        mirror = MetricSet.from_meta(src.meta_bytes(), Arena(1 << 20))
        if sanitize.mode() == "raise":
            # Under REPRO_SANITIZE the torn install itself is flagged.
            with pytest.raises(sanitize.SanitizerError):
                mirror.apply_data(torn)
        else:
            mirror.apply_data(torn)
            assert not mirror.is_consistent  # consumer must discard

    def test_mgn_mismatch_raises(self, arena):
        src = make_set(arena)
        src.set_all([1, 2, 3], timestamp=1.0)
        mirror = MetricSet.from_meta(src.meta_bytes(), Arena(1 << 20))
        # Producer recreates the set with a bumped MGN (metadata change).
        src2 = MetricSet.create("other", "test",
                                [(f"m{i}", MetricType.U64, 1) for i in range(3)],
                                arena, mgn=2)
        src2.set_all([4, 5, 6], timestamp=2.0)
        with pytest.raises(SchemaMismatch):
            mirror.apply_data(src2.data_bytes())

    def test_wrong_size_data_rejected(self, arena):
        mirror = MetricSet.from_meta(make_set(arena).meta_bytes(), Arena(1 << 20))
        with pytest.raises(ValueError):
            mirror.apply_data(b"tiny")

    def test_truncated_meta_rejected(self):
        with pytest.raises(ValueError):
            MetricSet.from_meta(b"short", Arena(1024))

    def test_corrupt_magic_rejected(self, arena):
        meta = bytearray(make_set(arena).meta_bytes())
        meta[:4] = b"XXXX"
        with pytest.raises(ValueError):
            MetricSet.from_meta(bytes(meta), Arena(1 << 20))

    @given(st.lists(st.integers(min_value=0, max_value=2**63),
                    min_size=1, max_size=40))
    def test_any_values_roundtrip(self, values):
        arena = Arena(1 << 20)
        s = MetricSet.create(
            "s", "t", [(f"m{i}", MetricType.U64, 0) for i in range(len(values))],
            arena,
        )
        s.set_all(values, timestamp=1.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        mirror.apply_data(s.data_bytes())
        assert mirror.values() == values


class TestGeometryNumbers:
    """Paper §IV-D set-size fidelity checks."""

    def test_bw_set_size_close_to_24kb(self):
        # 194 metrics (the BW production set) should land near 24 kB
        # total, with metadata dominating.
        arena = Arena(1 << 20)
        s = MetricSet.create(
            "n/bw", "bw",
            [(f"metric_{i:03d}", MetricType.U64, 1) for i in range(194)],
            arena,
        )
        assert 15_000 < s.total_size < 30_000
        assert s.data_size < 0.2 * s.total_size

    def test_chama_467_metrics_near_44kb(self):
        arena = Arena(1 << 20)
        total = 0
        per_set = 467 // 7
        for k in range(7):
            s = MetricSet.create(
                f"n/set{k}", f"schema{k}",
                [(f"metric_{i:03d}", MetricType.U64, 1) for i in range(per_set)],
                arena,
            )
            total += s.total_size
        assert 30_000 < total < 60_000


class TestValuesArray:
    """Bulk decode: homogeneous fast path and the mixed-dtype cache."""

    def test_homogeneous_frombuffer(self):
        import numpy as np
        arena = Arena(1 << 20)
        s = make_set(arena, n=4)
        s.begin_transaction()
        s.set_values([1, 2, 3, 2**63])
        s.end_transaction(1.0)
        arr = s.values_array()
        assert arr.dtype == np.dtype("<u8")
        assert arr.tolist() == [1, 2, 3, 2**63]
        # Copied out: mutating the array must not touch the live chunk.
        arr[0] = 99
        assert s.get(0) == 1

    def test_mixed_dtype_cached_per_schema(self):
        import numpy as np
        arena = Arena(1 << 20)
        s = MetricSet.create(
            "n/mixed", "mixed",
            [("count", MetricType.U64, 1), ("load", MetricType.F64, 1)],
            arena,
        )
        cs = s._layout
        assert cs.array_dtype is None  # genuinely mixed layout
        assert cs.mixed_dtype is None  # resolved lazily
        s.begin_transaction()
        s.set_values([7, 1.5])
        s.end_transaction(1.0)
        a1 = s.values_array()
        # u64 + f64 promote to float64, resolved once and cached on the
        # compiled schema (the regression: np.asarray with no dtype
        # re-ran full type inference over every element on every call).
        expected = np.result_type(np.uint64, np.float64)
        assert a1.dtype == expected
        assert cs.mixed_dtype == expected
        assert a1.tolist() == [7.0, 1.5]
        # Second call and a second same-schema set reuse the cache.
        assert s.values_array().dtype == expected
        s2 = MetricSet.create(
            "n2/mixed", "mixed",
            [("count", MetricType.U64, 1), ("load", MetricType.F64, 1)],
            arena,
        )
        assert s2._layout is cs
        assert s2.values_array().dtype == expected

    def test_mixed_integer_promotion(self):
        import numpy as np
        arena = Arena(1 << 20)
        s = MetricSet.create(
            "n/ints", "ints",
            [("a", MetricType.U32, 1), ("b", MetricType.S32, 1)],
            arena,
        )
        s.begin_transaction()
        s.set_values([2**32 - 1, -5])
        s.end_transaction(1.0)
        arr = s.values_array()
        assert arr.dtype == np.result_type(np.uint32, np.int32)
        assert arr.tolist() == [2**32 - 1, -5]
