"""Crash durability: write-ahead logging, atomic snapshots, recovery.

The subsystem behind ``DynamicSession(durable_dir=...)`` /
``DynamicSession.recover(...)``:

* :mod:`~repro.durability.wal` — the checksummed append-only journal
  (length-prefixed CRC32 frames, configurable fsync policy, torn-tail
  repair);
* :mod:`~repro.durability.snapshot` — atomic checksummed snapshot files
  with monotonic generation rotation, and the one codec every snapshot
  type's ``save`` / ``load`` goes through;
* :mod:`~repro.durability.recovery` — the :class:`DurableStore` a durable
  session owns (journal-before-apply, compaction) and
  :func:`recover_session`, which rebuilds bit-identical state after a
  crash.
"""

from repro.durability.recovery import (
    DurableCheckpoint,
    DurableStore,
    recover_session,
)
from repro.durability.snapshot import SnapshotStore, atomic_write_bytes
from repro.durability.wal import WalRecord, WriteAheadLog, read_wal

__all__ = [
    "DurableCheckpoint",
    "DurableStore",
    "SnapshotStore",
    "WalRecord",
    "WriteAheadLog",
    "atomic_write_bytes",
    "read_wal",
    "recover_session",
]
