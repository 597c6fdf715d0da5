"""Disk-backed columnar storage: page files, buffer pool, attached tables.

Layer 10 of the architecture (see ``docs/architecture.md``): a
page-oriented file format with typed, checksummed segments
(:mod:`repro.storage.pages`), codecs between engine structures and
segment families (:mod:`repro.storage.codecs`), and the attach surface —
:class:`~repro.storage.store.StoredTable` /
:class:`~repro.storage.store.StoredRelation` for lazy page-backed scans
and :class:`~repro.storage.store.EncodingStore` as the persistent tier
behind :class:`repro.core.encoded.EncodingCache`.
"""

from repro.storage.codecs import (
    CHUNK_ROWS,
    check_generation,
    dictionary_generation,
    stable_fingerprint,
)
from repro.storage.pages import (
    PAGE_SIZE,
    BufferPool,
    PageFileReader,
    PageFileWriter,
    SegmentInfo,
    global_buffer_pool,
)
from repro.storage.store import (
    EncodingStore,
    StoredRelation,
    StoredTable,
    ingest_prepared,
    open_table,
)

__all__ = [
    "BufferPool",
    "CHUNK_ROWS",
    "EncodingStore",
    "PAGE_SIZE",
    "PageFileReader",
    "PageFileWriter",
    "SegmentInfo",
    "StoredRelation",
    "StoredTable",
    "check_generation",
    "dictionary_generation",
    "global_buffer_pool",
    "ingest_prepared",
    "open_table",
    "stable_fingerprint",
]
