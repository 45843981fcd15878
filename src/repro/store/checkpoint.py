"""On-disk checkpoint images: write-rename protocol + mmap reader.

A checkpoint file is the shard codec's image layout
(``[u64 header length][header JSON][64-byte-aligned payload]``) with a
checkpoint-specific magic, written to disk instead of shared memory.  It
carries:

* every compiled ``BatchLookup`` table (reusing
  :func:`repro.shard.codec.encode_image`'s flattening and its full
  64-bit per-table digests);
* a pickled :class:`~repro.router.fib.ForwardingEngine` blob — the §4.4
  shadow state replay chains onto — checksummed like any other table;
* ``extra`` metadata: the absolute update sequence number of the cut.

The image is rendered to bytes (:func:`render_checkpoint`) under the
router's update lock (``SnapshotRouter.persistence_cut``), since updates
patch the served image in place; only the file write
(:func:`write_image`) runs outside it.

Durability protocol (each step a :func:`crashpoint`)::

    write checkpoint-G.chz.tmp   (two flushed chunks: kills leave a
                                  genuinely truncated tmp file)
    fsync(tmp)
    rename(tmp -> checkpoint-G.chz)
    fsync(directory)

A crash before the rename leaves only a ``.tmp`` (ignored and swept by
recovery); after the rename the checkpoint is complete-or-absent.
Readers ``mmap`` the file copy-on-write (a cold start's tail replay
patches the image's private pages) and rebuild zero-copy numpy views
through the shared :class:`~repro.shard.codec.SnapshotImage` machinery —
digest verification included, so a bit-flipped or truncated checkpoint
is *detected*, never served.
"""

from __future__ import annotations

import mmap
import os
from typing import Dict, Optional

from ..core.batch import BatchLookup
from ..shard.codec import (
    EncodedImage,
    SnapshotImage,
    SnapshotIntegrityError,
    encode_image,
    parse_image_header,
    write_image_into,
)
from .crashpoints import crashpoint

#: Image format 3, as the shard codec's, beside a FIB blob whose sub-cells
#: hold group-local bucket pointers and pickle their buckets as columns.
#: A build that cannot read that blob wrote ``-v3`` (global pointers),
#: ``-v2`` or ``-v1``; all are refused, so an older checkpoint falls back
#: instead of booting a blob this build would misread.
CHECKPOINT_MAGIC = "chisel-ckpt-v4"

#: Bytes of the tmp file flushed before the ``ckpt:tmp-torn`` point.
_TORN_SPLIT = 4096


class CheckpointCorruptError(SnapshotIntegrityError):
    """A checkpoint file failed header or checksum validation."""


def fsync_directory(directory: str) -> None:
    """Make a rename/create in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def render_checkpoint(lookup: BatchLookup, generation: int, seq: int,
                      blobs: Optional[Dict[str, bytes]] = None) -> bytearray:
    """The checkpoint file's bytes: a private copy of every table."""
    encoded: EncodedImage = encode_image(
        lookup, generation, magic=CHECKPOINT_MAGIC,
        blobs=blobs, extra={"seq": int(seq)},
    )
    image = bytearray(encoded.total_size)
    write_image_into(memoryview(image), encoded)
    return image


def write_image(path: str, image: bytes) -> int:
    """Write a file durably: tmp + fsync + rename + directory fsync.

    Checkpoints and the replicas' ledger state both persist through it.
    """
    tmp_path = path + ".tmp"
    crashpoint("ckpt:pre")
    with open(tmp_path, "wb") as handle:
        split = min(_TORN_SPLIT, max(len(image) - 1, 0))
        handle.write(image[:split])
        handle.flush()
        crashpoint("ckpt:tmp-torn")
        handle.write(image[split:])
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint("ckpt:tmp-durable")
    os.rename(tmp_path, path)
    crashpoint("ckpt:renamed")
    fsync_directory(os.path.dirname(path) or ".")
    crashpoint("ckpt:dir-durable")
    return len(image)


class MappedCheckpoint(SnapshotImage):
    """A checkpoint file mapped copy-on-write.

    The numpy views :meth:`to_lookup` hands out hold references to the
    mapping, so the OS page cache — not process heap — backs the tables;
    N cold-started processes mapping one checkpoint share one physical
    copy, the on-disk analogue of the shared-memory segments.  The
    mapping is ``ACCESS_COPY`` and the views are writable: a router
    serving them patches private pages, and the file is never written.
    Pages no update touches stay shared through the page cache.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        try:
            self._fd = os.open(path, os.O_RDONLY)
        except OSError as error:
            raise CheckpointCorruptError(
                f"checkpoint {path}: cannot open: {error}") from error
        try:
            size = os.fstat(self._fd).st_size
            if size == 0:
                raise CheckpointCorruptError(
                    f"checkpoint {path}: empty file")
            self._map = mmap.mmap(self._fd, 0, access=mmap.ACCESS_COPY)
        except (OSError, ValueError) as error:
            os.close(self._fd)
            raise CheckpointCorruptError(
                f"checkpoint {path}: cannot map: {error}") from error
        except CheckpointCorruptError:
            os.close(self._fd)
            raise
        self._closed = False
        try:
            header, payload_start = parse_image_header(
                memoryview(self._map), context=f"checkpoint {path}",
                magic=CHECKPOINT_MAGIC,
            )
        except SnapshotIntegrityError as error:
            self.close()
            raise CheckpointCorruptError(str(error)) from error
        super().__init__(memoryview(self._map), header, payload_start,
                         context=f"checkpoint {path}", writable=True)

    def verify(self) -> None:
        try:
            super().verify()
        except SnapshotIntegrityError as error:
            raise CheckpointCorruptError(str(error)) from error

    @property
    def path(self) -> str:
        return self._path

    @property
    def seq(self) -> int:
        return int(self.extra.get("seq", 0))  # type: ignore[arg-type]

    @property
    def nbytes(self) -> int:
        return len(self._map)

    def close(self) -> None:
        """Drop the mapping (views handed out keep it pinned until GC).

        Idempotent: the descriptor is closed once, since by a second
        call the OS may have given its number to another file.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._map.close()
        except BufferError:
            # Live views pin the map; the OS reclaims it at process
            # exit.  Mirrors SharedSnapshot.close's accepted leak.
            pass
        finally:
            os.close(self._fd)


def load_checkpoint(path: str) -> MappedCheckpoint:
    """Map and checksum-verify one checkpoint file."""
    checkpoint = MappedCheckpoint(path)
    try:
        checkpoint.verify()
    except CheckpointCorruptError:
        checkpoint.close()
        raise
    return checkpoint
