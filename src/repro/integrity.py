"""The one error type for damaged bytes.

Every decoder of bytes read from disk, a socket or shared memory raises a
subclass of :class:`IntegrityError` when its input fails validation:
``SnapshotIntegrityError`` (and ``CheckpointCorruptError``) for images,
``RecordDecodeError`` for journal records and replica state, ``WireError``
for replication frames and ``IBLTError`` for reconciliation tables.  Each
keeps its ``RuntimeError`` or ``ValueError`` base too, so older ``except``
clauses keep their meaning.
"""


class IntegrityError(Exception):
    """Bytes from disk, a socket or shared memory failed validation."""
