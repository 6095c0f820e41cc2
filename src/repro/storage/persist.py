"""File persistence for the shape base.

The external store of Section 4 is an in-memory *simulated* disk so
I/O can be counted; this module is the boring real thing: one binary
file per base, crash-safe and checksummed.

Three on-disk versions coexist:

* **v1** — header + per-entry records (no checksum); legacy, load only.
* **v2** — v1 plus body length + CRC32 in the header.  Records store
  only the *normalized* copies with float32 vertices, so loading
  reconstructs each original via the inverse transform and re-runs the
  whole normalization pipeline — an O(normalize) cold start with
  float32 rounding.
* **v3** (default) — array-native: the originals, every normalized
  copy's float64 vertices, all transforms, pairs and entry metadata as
  flat columnar arrays, plus (optionally) the precomputed hashing
  signatures.  :func:`load_base` materializes the base with **zero
  re-normalization** — vertex data is wrapped straight out of the
  file buffer, the flat index arrays are derived by pure slicing, and
  the range index builds lazily (or eagerly with ``warm=True``).  A
  v3-loaded base answers queries bit-for-bit identically to the base
  that was saved.
* **v4** — v3 plus one trailing section of per-entry ANN MinHash
  sketches (``repro.ann``) and their family parameters in the header.
  Loading fills the base's sketch cache, so a service configured with
  the same :class:`~repro.ann.SketchConfig` warms its LSH tier with
  zero sketch recompute.  Written only when :func:`save_base` is
  given ``ann_sketch``; bases without the ANN tier keep writing v3.

Writes are crash-safe: :func:`save_base` writes to a temp file in the
destination directory, fsyncs it, and publishes with ``os.replace`` —
the destination is always either the old snapshot or the complete new
one, never a torn mix.  v2/v3 headers carry the body length and a
CRC32 of the body; :func:`load_base` verifies both and raises
:class:`CorruptSnapshotError` (a :class:`ValueError`) on truncation or
bit rot instead of loading garbage.

**Backing modes.**  v3/v4 bases can load two ways, bit-for-bit
identical at query time and recorded in ``base.snapshot_backing``:

* ``"eager"`` — the file is read into process memory (the default);
* ``"mmap"`` — ``load_base(path, mmap=True)`` memory-maps the file
  read-only and wraps every column as a zero-copy ``np.frombuffer``
  view over the mapping.  N processes mapping the same snapshot share
  one set of physical pages (the kernel page cache), which is what the
  :mod:`repro.service.procpool` worker processes rely on: attaching a
  shard costs page-table entries, not a per-process copy of the
  corpus.  The views are read-only — writing through them raises.
"""

from __future__ import annotations

import mmap as _mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.shapebase import ShapeBase, ShapeEntry
from ..geometry.polyline import Shape
from ..geometry.transform import NormalizedCopy, SimilarityTransform
from .serialization import decode_record, encode_entry

MAGIC = b"GSIR"
VERSION = 3
_PREFIX = struct.Struct("<4sH")       # magic, version
_HEADER_V1 = struct.Struct("<fI")     # alpha, num entries
_HEADER_V2 = struct.Struct("<fIQI")   # alpha, num entries, body len, CRC32
# alpha (f8), num shapes, num entries, total original vertices, total
# copy vertices, signature curve count (0 = none), body len, CRC32
_HEADER_V3 = struct.Struct("<dIIQQiQI")
# v3's fields plus the embedded sketch family: num hashes, grid, seed
# (inserted before body len / CRC32).
_HEADER_V4 = struct.Struct("<dIIQQiiiqQI")


class CorruptSnapshotError(ValueError):
    """A snapshot file is truncated, checksum-broken, or not ours.

    Subclasses :class:`ValueError` so callers guarding persistence
    with ``except (OSError, ValueError)`` keep working.
    """


def _write_atomic(path: Path, payload: bytes) -> int:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(payload)


def _encode_v2(base: ShapeBase) -> bytes:
    body = b"".join(encode_entry(entry) for entry in base.entries)
    header = _PREFIX.pack(MAGIC, 2) + _HEADER_V2.pack(
        base.alpha, len(base.entries), len(body), zlib.crc32(body))
    return header + body


def _encode_v3(base: ShapeBase, hash_curves: Optional[int],
               ann_sketch=None) -> bytes:
    shape_items = list(base.shapes.items())      # insertion order
    sid_to_idx = {sid: i for i, (sid, _) in enumerate(shape_items)}
    shape_ids = np.array([sid for sid, _ in shape_items], dtype="<i8")
    shape_image = np.array(
        [-1 if base.shape_image[sid] is None else int(base.shape_image[sid])
         for sid, _ in shape_items], dtype="<i8")
    orig_counts = np.array([s.num_vertices for _, s in shape_items],
                           dtype="<i4")
    orig_closed = np.array([1 if s.closed else 0 for _, s in shape_items],
                           dtype="<u1")
    orig_vertices = (np.concatenate([s.vertices for _, s in shape_items],
                                    axis=0)
                     if shape_items else np.zeros((0, 2))).astype("<f8")

    entries = base.entries
    entry_shape_idx = np.array([sid_to_idx[e.shape_id] for e in entries],
                               dtype="<i4")
    pairs = np.array([e.copy.pair for e in entries],
                     dtype="<u2").reshape(len(entries), 2)
    transforms = np.array([e.copy.transform.as_tuple() for e in entries],
                          dtype="<f8").reshape(len(entries), 4)
    copy_counts = np.array([e.shape.num_vertices for e in entries],
                           dtype="<i4")
    copy_vertices = (np.concatenate([e.shape.vertices for e in entries],
                                    axis=0)
                     if entries else np.zeros((0, 2))).astype("<f8")

    if hash_curves is not None:
        from ..hashing.curves import HashCurveFamily
        from .layout import compute_signatures
        compute_signatures(base, HashCurveFamily(int(hash_curves)))
    sig = base._signature_cache
    if sig is not None and len(sig[1]) == len(entries) and len(entries):
        sig_curves, sig_rows = int(sig[0]), sig[1].astype("<i2")
    else:
        sig_curves, sig_rows = 0, np.zeros((0, 4), dtype="<i2")

    parts = [
        shape_ids.tobytes(), shape_image.tobytes(), orig_counts.tobytes(),
        orig_closed.tobytes(), entry_shape_idx.tobytes(), pairs.tobytes(),
        transforms.tobytes(), copy_counts.tobytes(), orig_vertices.tobytes(),
        copy_vertices.tobytes(), sig_rows.tobytes(),
    ]
    if ann_sketch is None:
        body = b"".join(parts)
        header = _PREFIX.pack(MAGIC, 3) + _HEADER_V3.pack(
            base.alpha, len(shape_items), len(entries), len(orig_vertices),
            len(copy_vertices), sig_curves, len(body), zlib.crc32(body))
        return header + body
    from ..ann.sketch import compute_entry_sketches
    sketch_rows = compute_entry_sketches(base, ann_sketch).astype("<i8")
    sk_hashes, sk_grid, sk_seed = ann_sketch.key
    body = b"".join(parts + [sketch_rows.tobytes()])
    header = _PREFIX.pack(MAGIC, 4) + _HEADER_V4.pack(
        base.alpha, len(shape_items), len(entries), len(orig_vertices),
        len(copy_vertices), sig_curves, sk_hashes, sk_grid, sk_seed,
        len(body), zlib.crc32(body))
    return header + body


def save_base(base: ShapeBase, path: Union[str, Path], *,
              version: int = VERSION,
              hash_curves: Optional[int] = None,
              ann_sketch=None) -> int:
    """Write the whole base to ``path`` atomically; returns bytes written.

    ``version`` selects the on-disk format (3, the array-native
    default, or 2 for compatibility with older readers).  With
    ``hash_curves`` set, a v3/v4 snapshot additionally embeds the
    per-entry characteristic signatures for that curve-family size
    (computing them now if the base has no cache), so a later
    :class:`~repro.hashing.ApproximateRetriever` build costs nothing.
    With ``ann_sketch`` (a :class:`~repro.ann.SketchConfig`) the
    snapshot is written as v4 and embeds the per-entry ANN MinHash
    sketches the same way, so a service's LSH tier warms with zero
    recompute; passing ``version=4`` without ``ann_sketch`` is an
    error (a v4 file exists *because* it carries sketches).

    The payload lands in a same-directory temp file first (fsynced),
    then ``os.replace`` publishes it — a crash mid-write leaves the
    previous snapshot intact, never a torn file.
    """
    path = Path(path)
    if ann_sketch is not None and version not in (3, 4):
        raise ValueError(
            "embedding ANN sketches requires the v4 format")
    if version == 4 and ann_sketch is None:
        raise ValueError(
            "version 4 embeds ANN sketches; pass ann_sketch")
    if version in (3, 4):
        payload = _encode_v3(base, hash_curves, ann_sketch)
    elif version == 2:
        payload = _encode_v2(base)
    else:
        raise ValueError(f"cannot write shape-base file version {version}")
    return _write_atomic(path, payload)


# ----------------------------------------------------------------------
# Snapshot deltas (streaming publication)
# ----------------------------------------------------------------------
#: A delta payload carries only the shapes *appended* to a base after
#: a known prior state — the unit the process tier ships to workers on
#: a version bump instead of republishing the whole corpus.  Deltas
#: cover pure-append windows only: removals compact entry ids, so any
#: removal forces a full republish (the publisher's compaction rule).
MAGIC_DELTA = b"GSID"
DELTA_VERSION = 1
# alpha, prior shapes, prior entries, added shapes, added entries,
# added original vertices, added copy vertices, signature curve count
# (0 = none), sketch hashes / grid / seed (0/0/0 = none), body length,
# CRC32 of the body.
_HEADER_DELTA = struct.Struct("<dIIIIQQiiiqQI")


def encode_base_delta(base: ShapeBase, prior_shapes: int,
                      prior_entries: int) -> bytes:
    """Columnar payload of everything appended after a prior state.

    ``prior_shapes``/``prior_entries`` name the consumer's current
    counts; the delta carries the shapes and entries past them, sliced
    from the same columns a v3/v4 snapshot stores.  Signature and
    sketch rows for the new entries ride along *when the base's caches
    are warm* (the ingest path keeps them patched), so the consumer
    extends its own caches without recomputing; cold caches just omit
    the section.  The caller must hold the base still (the shard's
    write lock) while encoding.
    """
    shape_items = list(base.shapes.items())[prior_shapes:]
    entries = base.entries[prior_entries:]
    if prior_shapes + len(shape_items) != len(base.shapes) or \
            prior_entries + len(entries) != len(base.entries):
        raise ValueError("prior counts exceed the base's current size")
    sid_to_idx = {sid: i for i, (sid, _) in enumerate(shape_items)}
    shape_ids = np.array([sid for sid, _ in shape_items], dtype="<i8")
    shape_image = np.array(
        [-1 if base.shape_image[sid] is None else int(base.shape_image[sid])
         for sid, _ in shape_items], dtype="<i8")
    orig_counts = np.array([s.num_vertices for _, s in shape_items],
                           dtype="<i4")
    orig_closed = np.array([1 if s.closed else 0 for _, s in shape_items],
                           dtype="<u1")
    orig_vertices = (np.concatenate([s.vertices for _, s in shape_items],
                                    axis=0)
                     if shape_items else np.zeros((0, 2))).astype("<f8")
    try:
        entry_shape_idx = np.array([sid_to_idx[e.shape_id] for e in entries],
                                   dtype="<i4")
    except KeyError as exc:
        raise ValueError(
            f"entry references shape {exc} outside the delta window "
            f"(not a pure-append window)") from exc
    pairs = np.array([e.copy.pair for e in entries],
                     dtype="<u2").reshape(len(entries), 2)
    transforms = np.array([e.copy.transform.as_tuple() for e in entries],
                          dtype="<f8").reshape(len(entries), 4)
    copy_counts = np.array([e.shape.num_vertices for e in entries],
                           dtype="<i4")
    copy_vertices = (np.concatenate([e.shape.vertices for e in entries],
                                    axis=0)
                     if entries else np.zeros((0, 2))).astype("<f8")

    sig = base._signature_cache
    if sig is not None and len(sig[1]) == len(base.entries) and entries:
        sig_curves = int(sig[0])
        sig_rows = np.asarray(sig[1][prior_entries:]).astype("<i2")
    else:
        sig_curves, sig_rows = 0, np.zeros((0, 4), dtype="<i2")
    sketch = base._sketch_cache
    if sketch is not None and len(sketch[1]) == len(base.entries) \
            and entries:
        (sk_hashes, sk_grid, sk_seed) = sketch[0]
        sketch_rows = np.asarray(sketch[1][prior_entries:]).astype("<i8")
    else:
        sk_hashes = sk_grid = sk_seed = 0
        sketch_rows = np.zeros((0, 0), dtype="<i8")

    body = b"".join([
        shape_ids.tobytes(), shape_image.tobytes(), orig_counts.tobytes(),
        orig_closed.tobytes(), entry_shape_idx.tobytes(), pairs.tobytes(),
        transforms.tobytes(), copy_counts.tobytes(),
        orig_vertices.tobytes(), copy_vertices.tobytes(),
        sig_rows.tobytes(), sketch_rows.tobytes(),
    ])
    header = _PREFIX.pack(MAGIC_DELTA, DELTA_VERSION) + _HEADER_DELTA.pack(
        base.alpha, prior_shapes, prior_entries, len(shape_items),
        len(entries), len(orig_vertices), len(copy_vertices), sig_curves,
        int(sk_hashes), int(sk_grid), int(sk_seed),
        len(body), zlib.crc32(body))
    return header + body


def apply_base_delta(base: ShapeBase, payload) -> int:
    """Append a delta payload's shapes to ``base``; returns the first
    new entry id.

    The inverse of :func:`encode_base_delta`: validates the magic,
    CRC and — critically — that ``base`` is at exactly the prior state
    the delta was cut against (same shape/entry counts and alpha), so
    a worker that missed a window fails loudly instead of diverging.
    Entries are rebuilt from the stored copy vertices and transforms
    (zero re-normalization, bit-for-bit) and absorbed through the
    base's own append path (``_register_new_entries``), with the
    delta's signature/sketch rows passed through when they match the
    base's warm cache families.
    """
    view = memoryview(payload)
    if len(view) < _PREFIX.size + _HEADER_DELTA.size:
        raise CorruptSnapshotError("truncated shape-base delta")
    magic, version = _PREFIX.unpack_from(view, 0)
    if magic != MAGIC_DELTA:
        raise CorruptSnapshotError("not a GeoSIR shape-base delta")
    if version != DELTA_VERSION:
        raise CorruptSnapshotError(
            f"unsupported shape-base delta version {version}")
    (alpha, prior_shapes, prior_entries, add_shapes, add_entries,
     n_orig, n_copy, sig_curves, sk_hashes, sk_grid, sk_seed,
     body_len, checksum) = _HEADER_DELTA.unpack_from(view, _PREFIX.size)
    start = _PREFIX.size + _HEADER_DELTA.size
    body = view[start:]
    if len(body) != body_len:
        raise CorruptSnapshotError(
            f"truncated shape-base delta: body holds {len(body)} "
            f"bytes, header promises {body_len}")
    if zlib.crc32(body) != checksum:
        raise CorruptSnapshotError(
            "shape-base delta checksum mismatch")
    if len(base.shapes) != prior_shapes or \
            len(base.entries) != prior_entries:
        raise ValueError(
            f"delta was cut against {prior_shapes} shapes / "
            f"{prior_entries} entries; base holds {len(base.shapes)} / "
            f"{len(base.entries)}")
    if abs(base.alpha - alpha) > 1e-12:
        raise ValueError("delta alpha does not match the base")

    sections = [
        ("shape_ids", "<i8", add_shapes),
        ("shape_image", "<i8", add_shapes),
        ("orig_counts", "<i4", add_shapes),
        ("orig_closed", "<u1", add_shapes),
        ("entry_shape_idx", "<i4", add_entries),
        ("pairs", "<u2", 2 * add_entries),
        ("transforms", "<f8", 4 * add_entries),
        ("copy_counts", "<i4", add_entries),
        ("orig_vertices", "<f8", 2 * n_orig),
        ("copy_vertices", "<f8", 2 * n_copy),
        ("signatures", "<i2", 4 * add_entries if sig_curves else 0),
        ("sketches", "<i8", sk_hashes * add_entries),
    ]
    expected = sum(np.dtype(d).itemsize * c for _, d, c in sections)
    if expected != body_len:
        raise CorruptSnapshotError(
            "shape-base delta section sizes are inconsistent")
    cols: Dict[str, np.ndarray] = {}
    offset = start
    for name, dtype, count in sections:
        cols[name] = np.frombuffer(view, dtype=dtype, count=count,
                                   offset=offset)
        offset += np.dtype(dtype).itemsize * count
    pairs = cols["pairs"].reshape(-1, 2).astype(np.int64)
    transforms = cols["transforms"].reshape(-1, 4)
    orig_vertices = cols["orig_vertices"].reshape(-1, 2)
    copy_vertices = cols["copy_vertices"].reshape(-1, 2)

    shape_ids = cols["shape_ids"]
    images = cols["shape_image"]
    orig_counts = cols["orig_counts"].astype(np.int64)
    orig_offsets = np.concatenate(([0], np.cumsum(orig_counts)))
    closed_flags = cols["orig_closed"] != 0
    for k in range(add_shapes):
        sid = int(shape_ids[k])
        if sid in base.shapes:
            raise ValueError(f"delta shape id {sid} already present")
        image_id = None if images[k] < 0 else int(images[k])
        # Copy out of the payload: unlike a snapshot load, nothing
        # pins the delta buffer after this call returns.
        verts = np.array(orig_vertices[orig_offsets[k]:
                                       orig_offsets[k + 1]])
        base.shapes[sid] = Shape._trusted(verts, bool(closed_flags[k]))
        base.shape_image[sid] = image_id
        base._entries_by_shape[sid] = []
        if image_id is not None:
            base._shapes_by_image.setdefault(image_id, []).append(sid)
        base._next_shape_id = max(base._next_shape_id, sid + 1)

    copy_counts = cols["copy_counts"].astype(np.int64)
    copy_offsets = np.concatenate(([0], np.cumsum(copy_counts)))
    entry_shape_idx = cols["entry_shape_idx"]
    first_entry = prior_entries
    new_entries: List[ShapeEntry] = []
    for e in range(add_entries):
        s_idx = int(entry_shape_idx[e])
        sid = int(shape_ids[s_idx])
        verts = np.array(copy_vertices[copy_offsets[e]:copy_offsets[e + 1]])
        copy = NormalizedCopy(
            Shape._trusted(verts, bool(closed_flags[s_idx])),
            SimilarityTransform(transforms[e, 0], transforms[e, 1],
                                transforms[e, 2], transforms[e, 3]),
            (int(pairs[e, 0]), int(pairs[e, 1])))
        entry = ShapeEntry(first_entry + e, sid,
                           base.shape_image[sid], copy)
        base.entries.append(entry)
        base._entries_by_shape[sid].append(entry.entry_id)
        new_entries.append(entry)

    # Hand cache rows through only when they match the base's warm
    # cache family — _register_new_entries recomputes otherwise.
    sig_rows = None
    if sig_curves and base._signature_cache is not None and \
            int(base._signature_cache[0]) == sig_curves:
        sig_rows = np.array(cols["signatures"]).reshape(-1, 4)
    sketch_rows = None
    if sk_hashes and base._sketch_cache is not None and \
            base._sketch_cache[0] == (sk_hashes, sk_grid, sk_seed):
        sketch_rows = np.array(cols["sketches"]).reshape(-1, sk_hashes)
    base._register_new_entries(new_entries, sig_rows, sketch_rows)
    base.version += 1
    return first_entry


def _load_v3(payload, backend: str, version: int = 3) -> ShapeBase:
    """Materialize a base from a v3/v4 payload buffer.

    ``payload`` may be ``bytes`` or an ``mmap.mmap`` mapping — every
    column array is a zero-copy ``np.frombuffer`` view over it, so the
    caller decides the backing (heap or file mapping).  The returned
    arrays are read-only whenever the buffer is.
    """
    if version == 4:
        alpha, num_shapes, num_entries, n_orig, n_copy, sig_curves, \
            sk_hashes, sk_grid, sk_seed, body_len, checksum = \
            _HEADER_V4.unpack_from(payload, _PREFIX.size)
        start = _PREFIX.size + _HEADER_V4.size
    else:
        alpha, num_shapes, num_entries, n_orig, n_copy, sig_curves, \
            body_len, checksum = _HEADER_V3.unpack_from(payload,
                                                        _PREFIX.size)
        sk_hashes = sk_grid = sk_seed = 0
        start = _PREFIX.size + _HEADER_V3.size
    # memoryview: no copy of the body for the length/CRC checks even
    # when the payload is a large file mapping.
    body = memoryview(payload)[start:]
    if len(body) != body_len:
        raise CorruptSnapshotError(
            f"truncated shape-base file: body holds {len(body)} "
            f"bytes, header promises {body_len}")
    if zlib.crc32(body) != checksum:
        raise CorruptSnapshotError(
            "shape-base file checksum mismatch (corrupted snapshot)")

    sections = [
        ("shape_ids", "<i8", num_shapes),
        ("shape_image", "<i8", num_shapes),
        ("orig_counts", "<i4", num_shapes),
        ("orig_closed", "<u1", num_shapes),
        ("entry_shape_idx", "<i4", num_entries),
        ("pairs", "<u2", 2 * num_entries),
        ("transforms", "<f8", 4 * num_entries),
        ("copy_counts", "<i4", num_entries),
        ("orig_vertices", "<f8", 2 * n_orig),
        ("copy_vertices", "<f8", 2 * n_copy),
        ("signatures", "<i2", 4 * num_entries if sig_curves else 0),
        ("sketches", "<i8", sk_hashes * num_entries),
    ]
    expected = sum(np.dtype(d).itemsize * c for _, d, c in sections)
    if expected != body_len:
        raise CorruptSnapshotError(
            "shape-base file section sizes are inconsistent")
    cols: Dict[str, np.ndarray] = {}
    offset = start
    for name, dtype, count in sections:
        cols[name] = np.frombuffer(payload, dtype=dtype, count=count,
                                   offset=offset)
        offset += np.dtype(dtype).itemsize * count
    pairs = cols["pairs"].reshape(-1, 2).astype(np.int64)
    transforms = cols["transforms"].reshape(-1, 4)
    orig_vertices = cols["orig_vertices"].reshape(-1, 2)
    copy_vertices = cols["copy_vertices"].reshape(-1, 2)

    base = ShapeBase(alpha=float(alpha), backend=backend)
    shape_ids = cols["shape_ids"]
    images = cols["shape_image"]
    orig_counts = cols["orig_counts"].astype(np.int64)
    orig_offsets = np.concatenate(([0], np.cumsum(orig_counts)))
    closed_flags = cols["orig_closed"] != 0
    for k in range(num_shapes):
        sid = int(shape_ids[k])
        image_id = None if images[k] < 0 else int(images[k])
        verts = orig_vertices[orig_offsets[k]:orig_offsets[k + 1]]
        base.shapes[sid] = Shape._trusted(verts, bool(closed_flags[k]))
        base.shape_image[sid] = image_id
        base._entries_by_shape[sid] = []
        if image_id is not None:
            base._shapes_by_image.setdefault(image_id, []).append(sid)
        base._next_shape_id = max(base._next_shape_id, sid + 1)

    copy_counts = cols["copy_counts"].astype(np.int64)
    copy_offsets = np.concatenate(([0], np.cumsum(copy_counts)))
    entry_shape_idx = cols["entry_shape_idx"]
    for e in range(num_entries):
        s_idx = int(entry_shape_idx[e])
        sid = int(shape_ids[s_idx])
        verts = copy_vertices[copy_offsets[e]:copy_offsets[e + 1]]
        copy = NormalizedCopy(
            Shape._trusted(verts, bool(closed_flags[s_idx])),
            SimilarityTransform(transforms[e, 0], transforms[e, 1],
                                transforms[e, 2], transforms[e, 3]),
            (int(pairs[e, 0]), int(pairs[e, 1])))
        base.entries.append(ShapeEntry(e, sid, base.shape_image[sid], copy))
        base._entries_by_shape[sid].append(e)

    # Derive the flat index arrays by pure slicing (no per-entry work):
    # drop each copy's two anchor rows from the stored vertex block.
    if num_entries:
        mask = np.ones(len(copy_vertices), dtype=bool)
        mask[copy_offsets[:-1] + pairs[:, 0]] = False
        mask[copy_offsets[:-1] + pairs[:, 1]] = False
        sizes = copy_counts - 2
        base._vertex_points = copy_vertices[mask]
        base._entry_sizes = sizes
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        base._entry_offsets = offsets
        base._vertex_owner = np.repeat(np.arange(num_entries), sizes)
    if sig_curves:
        base.set_signature_cache(sig_curves,
                                 cols["signatures"].reshape(-1, 4))
    if sk_hashes:
        base.set_sketch_cache(
            (int(sk_hashes), int(sk_grid), int(sk_seed)),
            cols["sketches"].reshape(-1, sk_hashes))
    base.version = 1 if num_shapes else 0
    return base


def load_base(path: Union[str, Path], backend: str = "kdtree", *,
              warm: bool = False, mmap: bool = False) -> ShapeBase:
    """Rebuild a :class:`ShapeBase` from a file written by
    :func:`save_base`.

    v3/v4 snapshots materialize directly from the stored arrays — no
    re-normalization, exact float64 vertices, cached signatures (and,
    for v4, cached ANN sketches) — with
    the range index built lazily on first use, or right away when
    ``warm`` is true.  v1/v2 snapshots reconstruct each original from
    the first of its stored copies via the inverse transform and
    re-normalize through the bulk-ingest path (identical structure to
    a fresh build, up to the old formats' float32 vertex rounding).
    The stored body length and CRC32 (v2/v3) are verified before any
    array or record is decoded.

    With ``mmap=True`` a v3/v4 file is memory-mapped read-only and the
    vertex/transform/signature/sketch columns become zero-copy views
    over the mapping: no per-process copy of the corpus, physical
    pages shared with every other process mapping the same file, and
    ``base.snapshot_backing == "mmap"``.  The answers are bit-for-bit
    identical to an eager load.  v1/v2 files cannot be served from a
    mapping (their load path re-normalizes every shape), so the flag
    silently falls back to the eager decode for them.
    """
    path = Path(path)
    if mmap:
        with open(path, "rb") as handle:
            head = handle.read(_PREFIX.size)
            if len(head) >= _PREFIX.size:
                magic, version = _PREFIX.unpack_from(head, 0)
                if magic == MAGIC and version in (3, 4):
                    mapping = _mmap.mmap(handle.fileno(), 0,
                                         access=_mmap.ACCESS_READ)
                    if len(mapping) < _PREFIX.size + (
                            _HEADER_V3 if version == 3
                            else _HEADER_V4).size:
                        raise CorruptSnapshotError(
                            "truncated shape-base file")
                    base = _load_v3(mapping, backend, version)
                    base.snapshot_backing = "mmap"
                    base._backing_buffer = mapping
                    if warm:
                        base._ensure_arrays()
                    return base
        # v1/v2 (or not-ours, reported below): eager fallback.
    payload = path.read_bytes()
    if len(payload) < _PREFIX.size:
        raise CorruptSnapshotError("truncated shape-base file")
    magic, version = _PREFIX.unpack_from(payload, 0)
    if magic != MAGIC:
        raise CorruptSnapshotError("not a GeoSIR shape-base file")
    if version == 1:
        header = _HEADER_V1
    elif version == 2:
        header = _HEADER_V2
    elif version == 3:
        header = _HEADER_V3
    elif version == 4:
        header = _HEADER_V4
    else:
        raise CorruptSnapshotError(
            f"unsupported shape-base file version {version}")
    if len(payload) < _PREFIX.size + header.size:
        raise CorruptSnapshotError("truncated shape-base file")
    if version in (3, 4):
        base = _load_v3(payload, backend, version)
        base.snapshot_backing = "eager"
        if warm:
            base._ensure_arrays()
        return base
    if version == 1:
        alpha, count = header.unpack_from(payload, _PREFIX.size)
    else:
        alpha, count, body_len, checksum = header.unpack_from(
            payload, _PREFIX.size)
        body = payload[_PREFIX.size + header.size:]
        if len(body) != body_len:
            raise CorruptSnapshotError(
                f"truncated shape-base file: body holds {len(body)} "
                f"bytes, header promises {body_len}")
        if zlib.crc32(body) != checksum:
            raise CorruptSnapshotError(
                "shape-base file checksum mismatch (corrupted snapshot)")
    base = ShapeBase(alpha=float(alpha), backend=backend)
    offset = _PREFIX.size + header.size
    seen = set()
    originals: List[Shape] = []
    shape_ids: List[int] = []
    image_ids: List[Optional[int]] = []
    for _ in range(count):
        record, offset = decode_record(payload, offset)
        if record.shape_id in seen:
            continue
        seen.add(record.shape_id)
        originals.append(record.transform.inverse().apply_shape(record.shape))
        shape_ids.append(record.shape_id)
        image_ids.append(record.image_id)
    if originals:
        base.add_shapes(originals, image_ids=image_ids, shape_ids=shape_ids)
    base.snapshot_backing = "eager"
    if warm:
        base._ensure_arrays()
    return base


def snapshot_info(path: Union[str, Path]) -> Dict[str, object]:
    """Header-only peek at a snapshot: version, alpha and counts.

    Reads just the fixed-size header (no body verification) — cheap
    enough for CLI ``stats`` to call on every invocation.
    ``mmap_capable`` reports whether the file's format supports the
    zero-copy ``load_base(mmap=True)`` backing (what worker processes
    attach with): true for the array-native v3/v4 formats, false for the
    re-normalizing v1/v2 loaders.
    """
    with open(path, "rb") as handle:
        head = handle.read(_PREFIX.size + _HEADER_V4.size)
        handle.seek(0, os.SEEK_END)
        size_bytes = handle.tell()
    if len(head) < _PREFIX.size:
        raise CorruptSnapshotError("truncated shape-base file")
    magic, version = _PREFIX.unpack_from(head, 0)
    if magic != MAGIC:
        raise CorruptSnapshotError("not a GeoSIR shape-base file")
    info: Dict[str, object] = {"version": int(version),
                               "size_bytes": int(size_bytes),
                               "mmap_capable": version in (3, 4)}
    if version == 1 and len(head) >= _PREFIX.size + _HEADER_V1.size:
        alpha, count = _HEADER_V1.unpack_from(head, _PREFIX.size)
        info.update(alpha=float(alpha), num_entries=int(count))
    elif version == 2 and len(head) >= _PREFIX.size + _HEADER_V2.size:
        alpha, count, _, _ = _HEADER_V2.unpack_from(head, _PREFIX.size)
        info.update(alpha=float(alpha), num_entries=int(count))
    elif version == 3 and len(head) >= _PREFIX.size + _HEADER_V3.size:
        alpha, num_shapes, num_entries, _, _, sig_curves, _, _ = \
            _HEADER_V3.unpack_from(head, _PREFIX.size)
        info.update(alpha=float(alpha), num_shapes=int(num_shapes),
                    num_entries=int(num_entries),
                    signature_curves=int(sig_curves))
    elif version == 4 and len(head) >= _PREFIX.size + _HEADER_V4.size:
        alpha, num_shapes, num_entries, _, _, sig_curves, sk_hashes, \
            sk_grid, sk_seed, _, _ = _HEADER_V4.unpack_from(
                head, _PREFIX.size)
        info.update(alpha=float(alpha), num_shapes=int(num_shapes),
                    num_entries=int(num_entries),
                    signature_curves=int(sig_curves),
                    ann_hashes=int(sk_hashes), ann_grid=int(sk_grid),
                    ann_seed=int(sk_seed))
    elif version in (1, 2, 3, 4):
        raise CorruptSnapshotError("truncated shape-base file")
    else:
        raise CorruptSnapshotError(
            f"unsupported shape-base file version {version}")
    return info
