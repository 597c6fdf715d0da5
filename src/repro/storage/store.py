"""Attached tables: lazy mmap relations and the persistent encoding tier.

One page file per ingested table holds every artifact family the engine
would otherwise rebuild on a cold start:

========================  ======================================================
segment family            contents
========================  ======================================================
``table/meta``            manifest: name, row/group counts, chunk layout,
                          dictionary generation, stable fingerprint
``dict/*``                the :class:`TokenDictionary` (interning table = the
                          ordering ``O``'s rank table, §4.3.2)
``groups/*``              prepared-relation group structure (keys, flat
                          elements/weights, offsets, norms)
``rows/<col>/<chunk>``    First-Normal-Form columns, chunked at morsel
                          granularity — the scan path's page-aligned batches
``enc/*``                 the columnar encoding (self-join / scan side)
``index/*``               token → (group, weight) inverted postings
``verify/*``              packed bitmap signatures + per-group max weights
========================  ======================================================

:class:`StoredTable` opens such a file and hands out each structure
lazily; :class:`StoredRelation` is the `Relation` face of the FNF chunks
— it satisfies the whole row protocol but only materializes tuples if a
consumer actually demands ``.rows``, and exposes
:meth:`~StoredRelation.iter_stored_batches` so the batch plan path
streams morsels (with projection pushdown: unprojected column segments
are never read) straight off mapped pages.

:class:`EncodingStore` is the disk tier behind
:class:`repro.core.encoded.EncodingCache`: a directory of *pair files*,
one per (left fingerprint, right fingerprint), each holding the joint
dictionary and both sides' encodings. ``load`` decodes — it never
re-sorts — and the cache promotes the result into its memory tier.

Layering: this module imports ``repro.core`` and ``repro.relational``;
neither imports this module. The plan/batch layers reach stored tables
only through duck typing (``iter_stored_batches``), the cache through the
``load/save/has`` protocol.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.dictionary import TokenDictionary
from repro.core.encoded import EncodedPreparedRelation, EncodingCache
from repro.core.encoded_index import EncodedInvertedIndex
from repro.core.prepared import PREPARED_SCHEMA, PreparedRelation
from repro.errors import StorageError
from repro.relational.batch import Batch
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage import codecs
from repro.storage.pages import (
    KIND_META,
    BufferPool,
    PageFileReader,
    PageFileWriter,
)

__all__ = [
    "EncodingStore",
    "StoredRelation",
    "StoredTable",
    "ingest_prepared",
    "open_table",
]

#: Manifest format version; bumped on incompatible layout changes.
MANIFEST_VERSION = 1

#: The base class's ``rows`` slot descriptor — backing storage for
#: :class:`StoredRelation`'s lazy ``rows`` property (same trick as
#: :class:`repro.relational.batch.ColumnarRelation`).
_ROWS_SLOT = Relation.__dict__["rows"]


class StoredRelation(Relation):
    """The ``R(a, b, w, norm)`` face of an attached table.

    Satisfies the full :class:`Relation` protocol; row tuples are built
    once, on first ``.rows`` access. The batch plan path never gets that
    far: :meth:`iter_stored_batches` streams column chunks directly, and
    a projection list restricts which column segments are read at all.
    """

    __slots__ = ("table",)

    def __init__(self, table: "StoredTable", name: Optional[str] = None) -> None:
        self.schema = PREPARED_SCHEMA
        self.name = name if name is not None else table.name
        self.table = table
        _ROWS_SLOT.__set__(self, None)

    @property  # type: ignore[override]
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        cached = _ROWS_SLOT.__get__(self, StoredRelation)
        if cached is None:
            columns = [
                self.table.column_chunks_joined(c) for c in self.schema.names
            ]
            cached = tuple(zip(*columns)) if columns else ()
            _ROWS_SLOT.__set__(self, cached)
        return cached

    def __len__(self) -> int:
        return self.table.num_rows

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    def column_values(self, name: str) -> Tuple[Any, ...]:
        self.schema.position(name)  # raises UnknownColumnError
        return tuple(self.table.column_chunks_joined(name))

    def renamed(self, name: str) -> "StoredRelation":
        # Relation.renamed would force .rows; aliasing an attached table
        # must stay lazy.
        return StoredRelation(self.table, name=name)

    def iter_stored_batches(
        self, batch_size: int, names: Optional[Sequence[str]] = None
    ) -> Iterator[Batch]:
        """Stream morsels straight from page-backed column chunks.

        *names* (projection pushdown) restricts the chunk segments read;
        ``None`` streams every column. When *batch_size* equals the
        ingest ``chunk_rows`` (both default to 4096), one chunk is one
        batch — page boundaries and morsel boundaries coincide and no
        column is ever re-sliced.
        """
        if names is None:
            schema = self.schema
        else:
            for n in names:
                self.schema.position(n)  # raises UnknownColumnError
            schema = Schema(list(names))
        cols = schema.names
        table = self.table
        chunk_rows = table.chunk_rows
        if not cols:
            remaining = table.num_rows
            while remaining > 0:
                n = min(batch_size, remaining)
                yield Batch(schema, (), num_rows=n)
                remaining -= n
            return
        if batch_size == chunk_rows:
            for c in range(table.n_chunks):
                yield Batch(schema, tuple(table.column_chunk(n, c) for n in cols))
            return
        # Re-chunk: accumulate page chunks, emit batch_size slices.
        pending: List[List[Any]] = [[] for _ in cols]
        for c in range(table.n_chunks):
            for acc, n in zip(pending, cols):
                acc.extend(table.column_chunk(n, c))
            while len(pending[0]) >= batch_size:
                yield Batch(
                    schema, tuple(acc[:batch_size] for acc in pending)
                )
                pending = [acc[batch_size:] for acc in pending]
        if pending[0]:
            yield Batch(schema, tuple(pending))

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickles as a re-open instruction: workers map the pages
        # read-only instead of receiving materialized tuples.
        return (_reopen_relation, (self.table.path, self.name))

    def __repr__(self) -> str:
        return (
            f"<StoredRelation {self.name!r} rows={self.num_rows} "
            f"file={self.table.path!r}>"
        )


def _reopen_relation(path: str, name: Optional[str]) -> StoredRelation:
    return StoredRelation(open_table(path), name=name)


class StoredTable:
    """An attached page file: manifest eagerly, everything else lazily.

    Each accessor decodes its segment family on first call and memoizes
    the result; artifacts derived from the dictionary (encoding, index,
    verify signatures) are generation-checked on decode, raising
    :class:`repro.errors.StaleArtifactError` on mismatch (rule SSJ114).
    """

    def __init__(self, path: str, pool: Optional[BufferPool] = None) -> None:
        self.path = os.path.abspath(path)
        self.reader = PageFileReader(self.path, pool=pool)
        try:
            manifest = codecs._loads(self.reader.segment("table/meta"))
        except StorageError:
            self.reader.close()
            raise
        if manifest.get("version") != MANIFEST_VERSION:
            self.reader.close()
            raise StorageError(
                f"{self.path!r}: manifest version {manifest.get('version')!r} "
                f"!= {MANIFEST_VERSION}"
            )
        self.manifest: Dict[str, Any] = manifest
        self.name: str = manifest["name"]
        self.num_rows: int = manifest["num_rows"]
        self.num_groups: int = manifest["num_groups"]
        self.chunk_rows: int = manifest["chunk_rows"]
        self.n_chunks: int = manifest["n_chunks"]
        self.generation: str = manifest["generation"]
        self.stable_fingerprint: str = manifest["stable_fingerprint"]
        self._relation: Optional[StoredRelation] = None
        self._dictionary: Optional[TokenDictionary] = None
        self._prepared: Optional[PreparedRelation] = None
        self._encoded: Optional[EncodedPreparedRelation] = None
        self._index: Optional[EncodedInvertedIndex] = None
        self._chunk_cache: "Dict[Tuple[str, int], List[Any]]" = {}

    # -- column chunks (scan path) ---------------------------------------------

    def column_chunk(self, column: str, chunk: int) -> List[Any]:
        key = (column, chunk)
        got = self._chunk_cache.get(key)
        if got is None:
            got = codecs.read_row_chunk(self.reader, column, chunk)
            self._chunk_cache[key] = got
        return got

    def column_chunks_joined(self, column: str) -> List[Any]:
        out: List[Any] = []
        for c in range(self.n_chunks):
            out.extend(self.column_chunk(column, c))
        return out

    # -- engine structures -------------------------------------------------------

    @property
    def relation(self) -> StoredRelation:
        if self._relation is None:
            self._relation = StoredRelation(self)
        return self._relation

    def dictionary(self) -> TokenDictionary:
        if self._dictionary is None:
            dictionary, generation = codecs.read_dictionary(self.reader)
            codecs.check_generation(
                "dictionary", generation, self.generation, self.path
            )
            self._dictionary = dictionary
        return self._dictionary

    def prepared(self) -> PreparedRelation:
        """The prepared relation, with its lazy ``.relation`` pre-wired to
        the stored (page-backed) relation — so ``PreparedInput`` plans
        over an attached table stream from pages, not from rebuilt rows."""
        if self._prepared is None:
            prepared = codecs.read_prepared(self.reader, self.name)
            prepared._relation = self.relation
            prepared.__dict__["_stable_digest"] = self.stable_fingerprint
            self._prepared = prepared
        return self._prepared

    def encoded(self) -> EncodedPreparedRelation:
        """The persisted columnar encoding with its verify signatures
        pre-loaded — zero re-encode, zero re-sort, zero re-pack."""
        if self._encoded is None:
            encoded = codecs.read_encoded(
                self.reader, self.prepared(), self.dictionary(), self.generation
            )
            codecs.read_verify_cache(self.reader, encoded, self.generation)
            self._encoded = encoded
        return self._encoded

    def inverted_index(self) -> EncodedInvertedIndex:
        """The prefix/inverted index rebuilt from persisted postings."""
        if self._index is None:
            postings = codecs.read_inverted_postings(self.reader, self.generation)
            index = EncodedInvertedIndex.__new__(EncodedInvertedIndex)
            index.encoded = self.encoded()
            index._postings = postings
            self._index = index
        return self._index

    def seed_cache(self, cache: EncodingCache) -> None:
        """Pre-populate an encoding cache's memory tier for the self-join
        over this table (the Fig-12 warm-start path)."""
        prepared = self.prepared()
        cache.seed(prepared, prepared, self.encoded(), self.encoded(),
                   self.dictionary())

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "num_rows": self.num_rows,
            "num_groups": self.num_groups,
            "n_chunks": self.n_chunks,
            "chunk_rows": self.chunk_rows,
            "num_pages": self.reader.num_pages,
            "generation": self.generation[:12],
            "segments": len(list(self.reader.segments())),
        }

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "StoredTable":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<StoredTable {self.name!r} rows={self.num_rows} "
            f"groups={self.num_groups} path={self.path!r}>"
        )


def open_table(path: str, pool: Optional[BufferPool] = None) -> StoredTable:
    """Open an ingested table's page file."""
    return StoredTable(path, pool=pool)


def ingest_prepared(
    prepared: PreparedRelation,
    path: str,
    name: Optional[str] = None,
    chunk_rows: int = codecs.CHUNK_ROWS,
    verify_widths: Tuple[int, ...] = (64,),
) -> StoredTable:
    """Persist a prepared relation plus every derived artifact.

    Builds the joint-frequency dictionary over the relation itself (the
    self-join dictionary — identical element ranking to what
    ``encode_pair(r, r)`` derives, since doubling every frequency
    preserves the order), encodes, indexes, signs, and writes the lot as
    one page file via an atomic tmp-then-replace. Returns the freshly
    opened :class:`StoredTable`.
    """
    table_name = name if name is not None else prepared.name
    dictionary = TokenDictionary.from_relations(prepared, prepared)
    encoded = EncodedPreparedRelation(prepared, dictionary)
    writer = PageFileWriter(path)
    try:
        generation = codecs.write_dictionary(writer, dictionary)
        layout = codecs.write_prepared(writer, prepared, chunk_rows=chunk_rows)
        codecs.write_encoded(writer, encoded, generation)
        codecs.write_inverted_index(writer, encoded, generation)
        if verify_widths:
            codecs.write_verify_cache(writer, encoded, generation, verify_widths)
        manifest = {
            "version": MANIFEST_VERSION,
            "name": table_name,
            "generation": generation,
            "stable_fingerprint": codecs.stable_fingerprint(prepared),
            "verify_widths": list(verify_widths),
            **layout,
        }
        writer.add_segment("table/meta", KIND_META, codecs._dumps(manifest))
    except BaseException:
        writer.abort()
        raise
    writer.close()
    return open_table(path)


class EncodingStore:
    """Directory of *pair files*: the persistent :class:`EncodingCache` tier.

    One page file per encoded pair, named by the two sides' stable
    (cross-process) content fingerprints, each holding the joint
    dictionary plus both encodings under ``left/`` / ``right/`` prefixes
    (one shared side for self-joins). Speaks the ``load/save/has``
    protocol :meth:`EncodingCache.attach_persistent` expects.
    """

    def __init__(self, directory: str, pool: Optional[BufferPool] = None) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.pool = pool

    def _pair_path(self, left: PreparedRelation, right: PreparedRelation) -> str:
        lf = codecs.stable_fingerprint(left)[:20]
        rf = codecs.stable_fingerprint(right)[:20]
        return os.path.join(self.directory, f"pair-{lf}-{rf}.rpsf")

    def has(self, left: PreparedRelation, right: PreparedRelation) -> bool:
        return os.path.exists(self._pair_path(left, right))

    def save(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        enc_left: EncodedPreparedRelation,
        enc_right: EncodedPreparedRelation,
        dictionary: TokenDictionary,
    ) -> str:
        path = self._pair_path(left, right)
        writer = PageFileWriter(path)
        try:
            generation = codecs.write_dictionary(writer, dictionary)
            codecs.write_encoded(writer, enc_left, generation, prefix="left/")
            shared = enc_right is enc_left
            if not shared:
                codecs.write_encoded(writer, enc_right, generation, prefix="right/")
            writer.add_segment(
                "pair/meta",
                KIND_META,
                codecs._dumps({
                    "version": MANIFEST_VERSION,
                    "generation": generation,
                    "left_fingerprint": codecs.stable_fingerprint(left),
                    "right_fingerprint": codecs.stable_fingerprint(right),
                    "shared": shared,
                }),
            )
        except BaseException:
            writer.abort()
            raise
        writer.close()
        return path

    def load(
        self, left: PreparedRelation, right: PreparedRelation
    ) -> Optional[
        Tuple[EncodedPreparedRelation, EncodedPreparedRelation, TokenDictionary]
    ]:
        path = self._pair_path(left, right)
        if not os.path.exists(path):
            return None
        with PageFileReader(path, pool=self.pool) as reader:
            meta = codecs._loads(reader.segment("pair/meta"))
            if (
                meta.get("version") != MANIFEST_VERSION
                or meta.get("left_fingerprint") != codecs.stable_fingerprint(left)
                or meta.get("right_fingerprint") != codecs.stable_fingerprint(right)
            ):
                return None
            dictionary, generation = codecs.read_dictionary(reader)
            enc_left = codecs.read_encoded(
                reader, left, dictionary, generation, prefix="left/"
            )
            if meta.get("shared") and right is left:
                enc_right = enc_left
            elif meta.get("shared"):
                enc_right = codecs.read_encoded(
                    reader, right, dictionary, generation, prefix="left/"
                )
            else:
                enc_right = codecs.read_encoded(
                    reader, right, dictionary, generation, prefix="right/"
                )
            return enc_left, enc_right, dictionary

    def files(self) -> List[str]:
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.startswith("pair-") and f.endswith(".rpsf")
        )

    def __repr__(self) -> str:
        return f"<EncodingStore {self.directory!r} pairs={len(self.files())}>"
