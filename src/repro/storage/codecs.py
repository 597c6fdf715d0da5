"""Segment codecs: engine structures ⇄ page-file byte blobs.

Each codec pair (``write_* `` / ``read_*``) maps one engine structure to a
family of typed segments inside a page file:

* the :class:`~repro.core.dictionary.TokenDictionary` — its element list
  in id order (the interning table *is* the ordering ``O``'s rank table);
* the prepared relation — group keys, flat element/weight arrays with
  group offsets, per-group norms, plus the First-Normal-Form ``(a, b, w,
  norm)`` columns chunked at **morsel granularity** (one column chunk =
  one morsel = its own page run), which is what lets the scan path stream
  batches straight off pages and skip unprojected column segments;
* the :class:`~repro.core.encoded.EncodedPreparedRelation` — flat sorted
  token-id / weight arrays plus group offsets (decode = array slicing,
  zero re-sorts);
* the prefix/inverted index — token → (group, weight) postings in
  columnar form; and
* the ``verify_cache`` — packed bitmap signatures per width plus the
  per-group max weights.

Every derived artifact (encoding, index, signatures) is stamped with the
**dictionary-generation fingerprint** — a content digest of the interning
table it was built under — so a stale artifact is *detected* at attach
time (:func:`check_generation`, analysis rule SSJ114) instead of silently
mis-joining under a reassigned id universe.

Numeric columns are raw little-endian ``array`` bytes; object columns
(keys, elements) are pickled. Digests use :mod:`hashlib` over
canonically-ordered pickles, so they are stable across processes and hash
seeds — unlike :meth:`PreparedRelation.fingerprint`, which is an
in-process ``hash`` and is exactly what the *memory* cache tier keys on.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dictionary import TokenDictionary
from repro.core.encoded import EncodedPreparedRelation
from repro.core.prepared import PreparedRelation
from repro.errors import StaleArtifactError, StorageError
from repro.storage.pages import (
    KIND_F64,
    KIND_I64,
    KIND_META,
    KIND_OBJECT,
    PageFileReader,
    PageFileWriter,
)
from repro.tokenize.sets import WeightedSet

__all__ = [
    "CHUNK_ROWS",
    "check_generation",
    "dictionary_generation",
    "read_dictionary",
    "read_encoded",
    "read_inverted_postings",
    "read_prepared",
    "read_row_chunk",
    "read_verify_cache",
    "stable_fingerprint",
    "write_dictionary",
    "write_encoded",
    "write_inverted_index",
    "write_prepared",
    "write_verify_cache",
]

#: Rows per First-Normal-Form column chunk. One chunk is one morsel: the
#: scan path emits each chunk as one Batch, so page boundaries (chunks
#: start on fresh pages) coincide with morsel boundaries.
CHUNK_ROWS = 4096

_PICKLE_PROTOCOL = 4


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def _loads(blob: bytes) -> Any:
    return pickle.loads(blob)


def _array_bytes(a: array) -> bytes:
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        a = array(a.typecode, a)
        a.byteswap()
    return a.tobytes()


def _array_from(typecode: str, blob: bytes) -> array:
    a = array(typecode)
    a.frombytes(blob)
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        a.byteswap()
    return a


# -- fingerprints ---------------------------------------------------------------


def dictionary_generation(dictionary: TokenDictionary) -> str:
    """Content digest of the interning table (the *generation* stamp).

    Hashes the element list in id order — the complete ``element → id``
    assignment — so any re-ranking, growth, or shrink of the dictionary
    changes the generation and invalidates every artifact stamped with
    the old one.
    """
    elements = [dictionary.element_of(i) for i in range(len(dictionary))]
    digest = hashlib.sha256(_dumps((elements, dictionary.description)))
    return digest.hexdigest()


def stable_fingerprint(prepared: PreparedRelation) -> str:
    """Cross-process content digest of a prepared relation.

    Canonicalizes by ``repr`` order (groups, then elements within each
    group) before pickling, so two relations prepared from the same
    values fingerprint identically in *different* processes — which is
    what the persistent encoding tier keys its files on. Memoized on the
    instance (content is immutable after construction).
    """
    cached = prepared.__dict__.get("_stable_digest")
    if cached is not None:
        return cached
    canonical = [
        (
            repr(a),
            sorted((repr(e), w) for e, w in wset.items()),
            prepared.norms[a],
        )
        for a, wset in sorted(prepared.groups.items(), key=lambda kv: repr(kv[0]))
    ]
    digest = hashlib.sha256(_dumps(canonical)).hexdigest()
    prepared.__dict__["_stable_digest"] = digest
    return digest


def check_generation(
    artifact: str, stamped: Optional[str], expected: str, source: str
) -> None:
    """Raise :class:`StaleArtifactError` when a persisted artifact's
    generation stamp disagrees with the attached dictionary (SSJ114)."""
    if stamped != expected:
        raise StaleArtifactError(
            f"{source}: persisted {artifact} was built under dictionary "
            f"generation {stamped!r} but the attached dictionary is "
            f"generation {expected!r}; re-ingest the table "
            "(analysis rule SSJ114)"
        )


# -- token dictionary -----------------------------------------------------------


def write_dictionary(writer: PageFileWriter, dictionary: TokenDictionary) -> str:
    """Persist the interning table; returns its generation stamp."""
    elements = [dictionary.element_of(i) for i in range(len(dictionary))]
    generation = dictionary_generation(dictionary)
    writer.add_segment("dict/elements", KIND_OBJECT, _dumps(elements))
    writer.add_segment(
        "dict/meta",
        KIND_META,
        _dumps({"description": dictionary.description,
                "generation": generation,
                "size": len(elements)}),
    )
    return generation


def read_dictionary(reader: PageFileReader) -> Tuple[TokenDictionary, str]:
    """Decode the interning table; returns ``(dictionary, generation)``.

    The generation is re-derived from the decoded table and checked
    against the stored stamp — a corrupted-but-crc-valid blob (or a
    hand-edited one) cannot masquerade as its claimed generation.
    """
    meta = _loads(reader.segment("dict/meta"))
    elements = _loads(reader.segment("dict/elements"))
    dictionary = TokenDictionary(
        {e: i for i, e in enumerate(elements)},
        description=meta["description"],
    )
    generation = dictionary_generation(dictionary)
    check_generation("dictionary", meta["generation"], generation, reader.path)
    return dictionary, generation


# -- prepared relation ----------------------------------------------------------


def write_prepared(
    writer: PageFileWriter,
    prepared: PreparedRelation,
    chunk_rows: int = CHUNK_ROWS,
) -> Dict[str, Any]:
    """Persist group structure + morsel-chunked FNF columns; returns the
    layout facts the table manifest records."""
    keys = list(prepared.groups)
    offsets = array("q", [0])
    elements: List[Any] = []
    weights = array("d")
    norms = array("d", (prepared.norms[a] for a in keys))
    for a in keys:
        wset = prepared.groups[a]
        for e, w in wset.items():
            elements.append(e)
            weights.append(w)
        offsets.append(len(elements))
    writer.add_segment("groups/keys", KIND_OBJECT, _dumps(keys))
    writer.add_segment("groups/offsets", KIND_I64, _array_bytes(offsets))
    writer.add_segment("groups/elements", KIND_OBJECT, _dumps(elements))
    writer.add_segment("groups/weights", KIND_F64, _array_bytes(weights))
    writer.add_segment("groups/norms", KIND_F64, _array_bytes(norms))

    # The FNF view, column-major and chunked at morsel granularity. The
    # row order matches PreparedRelation.relation exactly (group insertion
    # order, element insertion order within each group).
    col_a: List[Any] = []
    col_b: List[Any] = []
    col_w = array("d")
    col_n = array("d")
    for g, a in enumerate(keys):
        lo, hi = offsets[g], offsets[g + 1]
        n = prepared.norms[a]
        for i in range(lo, hi):
            col_a.append(a)
            col_b.append(elements[i])
            col_w.append(weights[i])
            col_n.append(n)
    num_rows = len(col_a)
    n_chunks = 0
    for c, lo in enumerate(range(0, num_rows, chunk_rows)):
        hi = min(lo + chunk_rows, num_rows)
        writer.add_segment(f"rows/a/{c}", KIND_OBJECT, _dumps(col_a[lo:hi]))
        writer.add_segment(f"rows/b/{c}", KIND_OBJECT, _dumps(col_b[lo:hi]))
        writer.add_segment(f"rows/w/{c}", KIND_F64, _array_bytes(col_w[lo:hi]))
        writer.add_segment(f"rows/norm/{c}", KIND_F64, _array_bytes(col_n[lo:hi]))
        n_chunks += 1
    return {
        "num_rows": num_rows,
        "num_groups": len(keys),
        "chunk_rows": chunk_rows,
        "n_chunks": n_chunks,
        "columns": ["a", "b", "w", "norm"],
    }


def read_prepared(reader: PageFileReader, name: str) -> PreparedRelation:
    """Reconstruct the prepared relation (groups, weights, norms)."""
    keys = _loads(reader.segment("groups/keys"))
    offsets = _array_from("q", reader.segment("groups/offsets"))
    elements = _loads(reader.segment("groups/elements"))
    weights = _array_from("d", reader.segment("groups/weights"))
    norms = _array_from("d", reader.segment("groups/norms"))
    if len(offsets) != len(keys) + 1 or len(norms) != len(keys):
        raise StorageError(f"{reader.path!r}: group segment shapes disagree")
    groups: Dict[Any, WeightedSet] = {}
    norm_map: Dict[Any, float] = {}
    for g, a in enumerate(keys):
        lo, hi = offsets[g], offsets[g + 1]
        groups[a] = WeightedSet(
            {elements[i]: weights[i] for i in range(lo, hi)}
        )
        norm_map[a] = norms[g]
    return PreparedRelation(groups, norm_map, name=name)


def read_row_chunk(
    reader: PageFileReader, column: str, chunk: int
) -> List[Any]:
    """One FNF column chunk, decoded by its typed segment kind."""
    name = f"rows/{column}/{chunk}"
    info = reader.info(name)
    blob = reader.segment(name)
    if info.kind == KIND_F64:
        return list(_array_from("d", blob))
    if info.kind == KIND_I64:
        return list(_array_from("q", blob))
    return _loads(blob)


# -- encoded relation -----------------------------------------------------------


def write_encoded(
    writer: PageFileWriter,
    encoded: EncodedPreparedRelation,
    generation: str,
    prefix: str = "",
) -> None:
    """Persist the columnar encoding, stamped with *generation*.

    *prefix* namespaces the segments (e.g. ``"left/"`` / ``"right/"`` in
    a pair file written by the persistent encoding tier).
    """
    offsets = array("q", [0])
    flat_ids = array("q")
    flat_weights = array("d")
    for ids, weights in zip(encoded.ids, encoded.weights):
        flat_ids.extend(ids)
        flat_weights.extend(weights)
        offsets.append(len(flat_ids))
    writer.add_segment(f"{prefix}enc/keys", KIND_OBJECT, _dumps(list(encoded.keys)))
    writer.add_segment(f"{prefix}enc/offsets", KIND_I64, _array_bytes(offsets))
    writer.add_segment(f"{prefix}enc/ids", KIND_I64, _array_bytes(flat_ids))
    writer.add_segment(f"{prefix}enc/weights", KIND_F64, _array_bytes(flat_weights))
    writer.add_segment(
        f"{prefix}enc/norms", KIND_F64, _array_bytes(array("d", encoded.norms))
    )
    writer.add_segment(
        f"{prefix}enc/set_norms", KIND_F64, _array_bytes(array("d", encoded.set_norms))
    )
    writer.add_segment(
        f"{prefix}enc/meta", KIND_META, _dumps({"generation": generation})
    )


def read_encoded(
    reader: PageFileReader,
    prepared: PreparedRelation,
    dictionary: TokenDictionary,
    generation: str,
    prefix: str = "",
) -> EncodedPreparedRelation:
    """Decode the columnar encoding over *prepared* — zero re-sorts.

    The artifact's generation stamp must match the attached dictionary's
    *generation*; a mismatch raises :class:`StaleArtifactError` (SSJ114).
    """
    meta = _loads(reader.segment(f"{prefix}enc/meta"))
    check_generation("encoding", meta.get("generation"), generation, reader.path)
    offsets = _array_from("q", reader.segment(f"{prefix}enc/offsets"))
    flat_ids = _array_from("q", reader.segment(f"{prefix}enc/ids"))
    flat_weights = _array_from("d", reader.segment(f"{prefix}enc/weights"))
    norms = _array_from("d", reader.segment(f"{prefix}enc/norms"))
    set_norms = _array_from("d", reader.segment(f"{prefix}enc/set_norms"))
    if len(offsets) != len(prepared.groups) + 1:
        raise StorageError(
            f"{reader.path!r}: encoded offsets disagree with group count"
        )
    ids: List[array] = []
    weights: List[array] = []
    for g in range(len(offsets) - 1):
        lo, hi = offsets[g], offsets[g + 1]
        ids.append(flat_ids[lo:hi])
        weights.append(flat_weights[lo:hi])
    return EncodedPreparedRelation.from_columns(
        prepared, dictionary, ids, weights, norms, set_norms
    )


# -- prefix / inverted index ----------------------------------------------------


def write_inverted_index(
    writer: PageFileWriter,
    encoded: EncodedPreparedRelation,
    generation: str,
) -> None:
    """Persist the full token → (group, weight) postings, columnar.

    This is the predicate-independent index substrate: a β-prefix index
    for any bound is a leading sub-range of each group's sorted ids, and
    the probe plan's index is exactly these postings.
    """
    postings: Dict[int, List[Tuple[int, float]]] = {}
    for g, ids in enumerate(encoded.ids):
        w = encoded.weights[g]
        for i, t in enumerate(ids):
            postings.setdefault(t, []).append((g, w[i]))
    tokens = array("q", sorted(postings))
    offsets = array("q", [0])
    flat_groups = array("q")
    flat_weights = array("d")
    for t in tokens:
        for g, w in postings[t]:
            flat_groups.append(g)
            flat_weights.append(w)
        offsets.append(len(flat_groups))
    writer.add_segment("index/tokens", KIND_I64, _array_bytes(tokens))
    writer.add_segment("index/offsets", KIND_I64, _array_bytes(offsets))
    writer.add_segment("index/groups", KIND_I64, _array_bytes(flat_groups))
    writer.add_segment("index/weights", KIND_F64, _array_bytes(flat_weights))
    writer.add_segment("index/meta", KIND_META, _dumps({"generation": generation}))


def read_inverted_postings(
    reader: PageFileReader, generation: str
) -> Dict[int, List[Tuple[int, float]]]:
    """Decode the persisted postings map (generation-checked)."""
    meta = _loads(reader.segment("index/meta"))
    check_generation("inverted index", meta.get("generation"), generation,
                     reader.path)
    tokens = _array_from("q", reader.segment("index/tokens"))
    offsets = _array_from("q", reader.segment("index/offsets"))
    flat_groups = _array_from("q", reader.segment("index/groups"))
    flat_weights = _array_from("d", reader.segment("index/weights"))
    postings: Dict[int, List[Tuple[int, float]]] = {}
    for i, t in enumerate(tokens):
        lo, hi = offsets[i], offsets[i + 1]
        postings[t] = [
            (flat_groups[j], flat_weights[j]) for j in range(lo, hi)
        ]
    return postings


# -- verify cache ---------------------------------------------------------------


def write_verify_cache(
    writer: PageFileWriter,
    encoded: EncodedPreparedRelation,
    generation: str,
    widths: Tuple[int, ...],
) -> None:
    """Persist bitmap signatures (per width) and per-group max weights.

    Signatures are arbitrary-width ints (one *nbits*-wide bitmap per
    group), so they are pickled rather than dumped as fixed-size words.
    """
    from repro.core.verify import max_weights_for, signatures_for

    for nbits in widths:
        sigs = signatures_for(encoded, nbits)
        writer.add_segment(f"verify/sigs/{nbits}", KIND_OBJECT, _dumps(list(sigs)))
    maxw = max_weights_for(encoded)
    writer.add_segment(
        "verify/max_weights", KIND_F64, _array_bytes(array("d", maxw))
    )
    writer.add_segment(
        "verify/meta",
        KIND_META,
        _dumps({"generation": generation, "widths": list(widths)}),
    )


def read_verify_cache(
    reader: PageFileReader,
    encoded: EncodedPreparedRelation,
    generation: str,
) -> Tuple[int, ...]:
    """Load persisted signatures into ``encoded.verify_cache``.

    Entries are keyed exactly as :func:`repro.core.verify.signatures_for`
    caches them — ``("signatures", nbits) -> (universe, sigs)`` — so the
    verification engine's cache lookups hit without knowing the
    signatures came off disk. Returns the widths loaded.
    """
    if not reader.has("verify/meta"):
        return ()
    meta = _loads(reader.segment("verify/meta"))
    check_generation("verify cache", meta.get("generation"), generation,
                     reader.path)
    universe = len(encoded.dictionary)
    widths = tuple(meta["widths"])
    for nbits in widths:
        sigs = _loads(reader.segment(f"verify/sigs/{nbits}"))
        encoded.verify_cache[("signatures", nbits)] = (universe, sigs)
    maxw = list(_array_from("d", reader.segment("verify/max_weights")))
    encoded.verify_cache["max_weights"] = maxw
    return widths
