"""mmap-backed snapshot loads (PR 8): zero-copy, read-only, bit-for-bit.

The zero-copy contract: ``load_base(path, mmap=True)`` must answer
exactly like the eager load for every supported snapshot version —
v3/v4 map their columns as read-only views over the file, v1/v2
silently fall back to the eager re-normalizing decode — while the
mapped arrays reject writes (an immutable snapshot is what makes the
many-reader process tier safe).
"""

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.ann import AnnConfig
from repro.storage import CorruptSnapshotError, load_base, save_base
from repro.storage.persist import snapshot_info

from .conftest import star_shaped_polygon


@pytest.fixture
def built(rng):
    base = ShapeBase(alpha=0.1)
    base.add_shapes([star_shaped_polygon(rng, int(rng.integers(8, 16)))
                     for _ in range(12)],
                    image_ids=[i % 4 for i in range(12)])
    return base


def _answers(base, sketches, k=3):
    matcher = GeometricSimilarityMatcher(base)
    return [[(m.shape_id, m.distance)
             for m in matcher.query(s, k=k)[0]]
            for s in sketches]


def _assert_bitwise_equal(eager: ShapeBase, mapped: ShapeBase):
    assert eager.shape_ids() == mapped.shape_ids()
    assert eager.num_entries == mapped.num_entries
    assert eager.alpha == mapped.alpha
    for ea, eb in zip(eager.entries, mapped.entries):
        assert (ea.entry_id, ea.shape_id, ea.image_id) == \
               (eb.entry_id, eb.shape_id, eb.image_id)
        assert np.array_equal(ea.shape.vertices, eb.shape.vertices)
    eager._ensure_arrays()
    mapped._ensure_arrays()
    assert np.array_equal(eager._vertex_points, mapped._vertex_points)
    assert np.array_equal(eager._vertex_owner, mapped._vertex_owner)


class TestMmapEqualsEager:
    def test_v3_bitwise_and_answers(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        eager = load_base(path)
        mapped = load_base(path, mmap=True)
        assert eager.snapshot_backing == "eager"
        assert mapped.snapshot_backing == "mmap"
        _assert_bitwise_equal(eager, mapped)
        sketches = list(built.shapes.values())[:3]
        assert _answers(eager, sketches) == _answers(mapped, sketches)

    def test_v4_with_signatures_and_sketches(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        ann = AnnConfig(tables=4, band_width=2, grid=16, seed=7)
        save_base(built, path, version=4, hash_curves=40,
                  ann_sketch=ann.sketch)
        eager = load_base(path)
        mapped = load_base(path, mmap=True)
        assert mapped.snapshot_backing == "mmap"
        _assert_bitwise_equal(eager, mapped)
        # The embedded caches must arrive identically through both
        # backings (zero recompute on either path).
        from repro.ann.sketch import compute_entry_sketches
        from repro.hashing.curves import HashCurveFamily
        from repro.storage.layout import compute_signatures
        assert np.array_equal(compute_entry_sketches(eager, ann.sketch),
                              compute_entry_sketches(mapped, ann.sketch))
        family = HashCurveFamily(40)
        assert np.array_equal(compute_signatures(eager, family),
                              compute_signatures(mapped, family))

    def test_v2_falls_back_to_eager(self, built, tmp_path):
        path = tmp_path / "b.gsir"
        save_base(built, path, version=2)
        fallback = load_base(path, mmap=True)
        eager = load_base(path)
        assert fallback.snapshot_backing == "eager"
        assert fallback.shape_ids() == eager.shape_ids()
        sketch = next(iter(built.shapes.values()))
        assert _answers(fallback, [sketch]) == _answers(eager, [sketch])

    def test_v1_falls_back_to_eager(self, built, tmp_path):
        import struct
        from repro.storage.serialization import encode_entry
        blobs = b"".join(encode_entry(e) for e in built.entries)
        payload = struct.Struct("<4sHfI").pack(
            b"GSIR", 1, built.alpha, built.num_entries) + blobs
        path = tmp_path / "legacy.gsir"
        path.write_bytes(payload)
        fallback = load_base(path, mmap=True)
        assert fallback.snapshot_backing == "eager"
        assert fallback.shape_ids() == built.shape_ids()

    def test_fresh_base_reports_memory_backing(self, built):
        assert built.snapshot_backing == "memory"


class TestReadOnlyViews:
    def test_vertex_columns_reject_writes(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        mapped = load_base(path, mmap=True)
        mapped._ensure_arrays()
        with pytest.raises(ValueError, match="read-only"):
            mapped._vertex_points[0, 0] = 123.0
        entry = mapped.entries[0]
        with pytest.raises(ValueError, match="read-only"):
            entry.shape.vertices[0, 0] = 123.0

    def test_mmap_load_is_queryable_after_writes_rejected(
            self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        mapped = load_base(path, mmap=True)
        with pytest.raises(ValueError):
            mapped.entries[0].shape.vertices[0, 0] = 1.0
        sketch = next(iter(built.shapes.values()))
        assert _answers(mapped, [sketch]) == _answers(built, [sketch])


class TestSnapshotInfo:
    def test_reports_size_and_mmap_capability(self, built, tmp_path):
        v3 = tmp_path / "v3.gsb"
        v2 = tmp_path / "v2.gsir"
        save_base(built, v3, version=3)
        save_base(built, v2, version=2)
        info3 = snapshot_info(v3)
        info2 = snapshot_info(v2)
        assert info3["mmap_capable"] is True
        assert info2["mmap_capable"] is False
        assert info3["size_bytes"] == v3.stat().st_size
        assert info2["size_bytes"] == v2.stat().st_size

    def test_truncated_mmap_load_detected(self, built, tmp_path):
        path = tmp_path / "b.gsb"
        save_base(built, path, version=3)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 17])
        with pytest.raises(CorruptSnapshotError):
            load_base(path, mmap=True)

