"""Dictionary-encoded relations and the encoding cache.

:class:`EncodedPreparedRelation` is the columnar twin of
:class:`~repro.core.prepared.PreparedRelation`: per group, a sorted
``array('q')`` of dense token ids plus a parallel ``array('d')`` of
weights, with group norms in flat arrays. Because ids are assigned in the
global ordering ``O`` (see :mod:`repro.core.dictionary`), a group's
β-prefix is a leading slice of its id array and overlap between two groups
is a merge-intersection of two sorted int arrays — no tuple hashing, no
key-function sorts.

Encoding costs one sort per group, so :class:`EncodingCache` memoizes the
``(TokenDictionary, encoded left, encoded right)`` triple per input pair.
Entries are keyed by a content *fingerprint* of each side (which reflects
the tokenizer and weight table through the elements and weights
themselves) and verified by exact group/norm comparison on every hit, so
repeated benchmark sweeps and the optimizer's costing probes re-encode
nothing even though each sweep call rebuilds fresh
:class:`PreparedRelation` objects from the same strings.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Any, List, Optional, Tuple

from repro.core.dictionary import TokenDictionary
from repro.core.metrics import ExecutionMetrics
from repro.core.ordering import ElementOrdering
from repro.core.prepared import PreparedRelation

__all__ = [
    "EncodedPreparedRelation",
    "EncodingCache",
    "encode_pair",
    "encoding_cached",
    "encoding_tier",
    "global_encoding_cache",
]


class EncodedPreparedRelation:
    """Columnar, integer-native view of a prepared relation.

    Attributes
    ----------
    keys:
        Group keys, in the prepared relation's group order; positions in
        this list index every other per-group structure.
    ids / weights:
        Per group, parallel arrays sorted ascending by id (= the ordering
        ``O``): ``ids[g][i]`` is the i-th element of group ``g`` under
        ``O`` and ``weights[g][i]`` its weight.
    norms:
        The predicate norms (``prepared.norms`` — may be string length,
        cardinality, or set weight).
    set_norms:
        ``wt(Set(a))`` per group — the β computation needs the set's own
        total weight regardless of which norm the predicate uses.
    """

    __slots__ = (
        "prepared",
        "dictionary",
        "keys",
        "ids",
        "weights",
        "norms",
        "set_norms",
        "prefix_cache",
        "verify_cache",
        "storage_ref",
        "_num_elements",
    )

    def __init__(
        self,
        prepared: PreparedRelation,
        dictionary: TokenDictionary,
    ) -> None:
        self.prepared = prepared
        self.dictionary = dictionary
        # β-prefix lengths are a pure function of (this encoding, predicate
        # bound); group_prefix_lengths memoizes them here so repeated
        # executes against one encoding skip the per-group recomputation.
        self.prefix_cache: dict = {}
        # Verification-engine columnar state (bit signatures per width,
        # total weights, max weights) — see repro.core.verify.
        # Signature entries record the dictionary size they were packed
        # under so a grown dictionary invalidates them.
        self.verify_cache: dict = {}
        # When this encoding was decoded from (or persisted to) a page
        # file, the file's path — lets the parallel executor ship a path
        # instead of pickled columns, and the optimizer charge page I/O.
        self.storage_ref: Optional[str] = None
        self.keys = list(prepared.groups)
        self._num_elements: Optional[int] = None
        self.ids: List[array] = []
        self.weights: List[array] = []
        self.norms = array("d")
        self.set_norms = array("d")
        for a, wset in prepared.groups.items():
            ids, weights = dictionary.encode_sorted(wset)
            self.ids.append(ids)
            self.weights.append(weights)
            self.norms.append(prepared.norms[a])
            self.set_norms.append(wset.norm)

    @classmethod
    def from_columns(
        cls,
        prepared: PreparedRelation,
        dictionary: TokenDictionary,
        ids: List[array],
        weights: List[array],
        norms: array,
        set_norms: array,
        storage_ref: Optional[str] = None,
    ) -> "EncodedPreparedRelation":
        """Adopt pre-built columnar arrays without re-encoding.

        This is the storage layer's decode path: the arrays come straight
        out of page segments (already sorted under the dictionary's
        ordering ``O``), so constructing the relation costs zero per-group
        sorts. Callers are responsible for array/dictionary coherence —
        the SSJ1xx verifier and the SSJ114 generation stamp audit it.
        """
        self = cls.__new__(cls)
        self.prepared = prepared
        self.dictionary = dictionary
        self.prefix_cache = {}
        self.verify_cache = {}
        self.storage_ref = storage_ref
        self.keys = list(prepared.groups)
        self._num_elements = None
        self.ids = list(ids)
        self.weights = list(weights)
        self.norms = norms
        self.set_norms = set_norms
        return self

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    @property
    def num_elements(self) -> int:
        # Memoized: columns are fixed after construction and the parallel
        # executor reads this on every dispatch.
        if self._num_elements is None:
            self._num_elements = sum(len(ids) for ids in self.ids)
        return self._num_elements

    def __repr__(self) -> str:
        return (
            f"<EncodedPreparedRelation {self.prepared.name!r} "
            f"groups={self.num_groups} elements={self.num_elements}>"
        )


class EncodingCache:
    """Tiered LRU memo of encodings per (left fp, right fp, ordering).

    Fingerprints are content hashes (see
    :meth:`PreparedRelation.fingerprint`); because hashes can collide, a
    hit is only honored after exact comparison of the cached groups and
    norms against the incoming relations — an O(elements) dict compare,
    orders of magnitude cheaper than re-encoding's per-group sorts.

    The memory tier is bounded: at most *capacity* entries, evicted
    least-recently-used (``evictions`` counts them). An optional
    **persistent tier** (attach via :meth:`attach_persistent` — any
    object speaking ``load/save/has``, normally
    :class:`repro.storage.store.EncodingStore`) turns the lookup into
    memory → disk → rebuild: a memory miss probes the page files, a disk
    hit decodes the columnar arrays (no re-encode, no re-sort) and is
    promoted into the memory tier. Disk lookups only apply to the
    default (joint-frequency) ordering — a custom
    :class:`ElementOrdering` is keyed by object identity, which does not
    survive a process boundary.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        #: persistent tier (duck-typed; see :meth:`attach_persistent`)
        self.persistent: Optional[Any] = None
        #: write encodings built on a full miss back to the persistent tier
        self.auto_persist = False

    def attach_persistent(self, store: Any, auto_persist: bool = False) -> None:
        """Attach a disk tier. With *auto_persist*, encodings built on a
        full miss are written back so the next process warm-starts."""
        self.persistent = store
        self.auto_persist = auto_persist

    def encode_pair(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        ordering: Optional[ElementOrdering] = None,
        metrics: Optional[ExecutionMetrics] = None,
    ) -> Tuple[EncodedPreparedRelation, EncodedPreparedRelation, TokenDictionary]:
        """Encode both sides of a join, reusing a cached encoding if the
        inputs are content-identical to a previous pair."""
        key = (left.fingerprint(), right.fingerprint(),
               None if ordering is None else id(ordering))
        entry = self._entries.get(key)
        if entry is not None:
            enc_left, enc_right, dictionary = entry
            if self._matches(enc_left, left) and self._matches(enc_right, right):
                self._entries.move_to_end(key)
                self.hits += 1
                if metrics is not None:
                    metrics.encode_cache_hits += 1
                return enc_left, enc_right, dictionary

        if self.persistent is not None and ordering is None:
            loaded = self.persistent.load(left, right)
            if loaded is not None:
                self.disk_hits += 1
                if metrics is not None:
                    metrics.encode_cache_hits += 1
                self._insert(key, loaded)
                return loaded

        self.misses += 1
        if metrics is not None:
            metrics.encode_cache_misses += 1
        dictionary = TokenDictionary.from_relations(left, right, ordering=ordering)
        enc_left = EncodedPreparedRelation(left, dictionary)
        enc_right = (
            enc_left
            if right is left
            else EncodedPreparedRelation(right, dictionary)
        )
        if self.persistent is not None and self.auto_persist and ordering is None:
            self.persistent.save(left, right, enc_left, enc_right, dictionary)
        self._insert(key, (enc_left, enc_right, dictionary))
        return enc_left, enc_right, dictionary

    def _insert(self, key: Tuple, entry: Tuple) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def seed(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        enc_left: EncodedPreparedRelation,
        enc_right: EncodedPreparedRelation,
        dictionary: TokenDictionary,
        ordering: Optional[ElementOrdering] = None,
    ) -> None:
        """Pre-populate the memory tier with an externally-built encoding
        (e.g. one decoded from an attached table's page file)."""
        key = (left.fingerprint(), right.fingerprint(),
               None if ordering is None else id(ordering))
        self._insert(key, (enc_left, enc_right, dictionary))

    def contains(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        ordering: Optional[ElementOrdering] = None,
    ) -> bool:
        """Whether a verified encoding for this pair is in the memory tier
        (used by the optimizer to zero the encode cost)."""
        key = (left.fingerprint(), right.fingerprint(),
               None if ordering is None else id(ordering))
        entry = self._entries.get(key)
        if entry is None:
            return False
        enc_left, enc_right, _ = entry
        return self._matches(enc_left, left) and self._matches(enc_right, right)

    def tier(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        ordering: Optional[ElementOrdering] = None,
    ) -> Optional[str]:
        """Which tier would serve this pair: ``"memory"``, ``"disk"``, or
        ``None`` (full rebuild). The optimizer charges zero encode cost
        for memory, page I/O for disk, per-element encode otherwise."""
        if self.contains(left, right, ordering):
            return "memory"
        if (
            self.persistent is not None
            and ordering is None
            and self.persistent.has(left, right)
        ):
            return "disk"
        return None

    def stats(self) -> dict:
        """Counters for ``ExecutionMetrics.extra`` and bench telemetry."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "persistent": self.persistent is not None,
        }

    @staticmethod
    def _matches(encoded: EncodedPreparedRelation, prepared: PreparedRelation) -> bool:
        cached = encoded.prepared
        if cached is prepared:
            return True
        # Content-identity check for cache reuse: exact equality intended.
        return cached.groups == prepared.groups and cached.norms == prepared.norms  # repro: ignore[RL203]

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide cache shared by the facade, the optimizer, and callers
#: that invoke the encoded plans directly.
_GLOBAL_CACHE = EncodingCache()


def global_encoding_cache() -> EncodingCache:
    return _GLOBAL_CACHE


def encode_pair(
    left: PreparedRelation,
    right: PreparedRelation,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    cache: Optional[EncodingCache] = None,
) -> Tuple[EncodedPreparedRelation, EncodedPreparedRelation, TokenDictionary]:
    """Module-level shorthand over the global :class:`EncodingCache`."""
    return (_GLOBAL_CACHE if cache is None else cache).encode_pair(left, right, ordering, metrics)


def encoding_cached(
    left: PreparedRelation,
    right: PreparedRelation,
    ordering: Optional[ElementOrdering] = None,
    cache: Optional[EncodingCache] = None,
) -> bool:
    """Whether :func:`encode_pair` would hit the memory tier for this pair."""
    return (_GLOBAL_CACHE if cache is None else cache).contains(left, right, ordering)


def encoding_tier(
    left: PreparedRelation,
    right: PreparedRelation,
    ordering: Optional[ElementOrdering] = None,
    cache: Optional[EncodingCache] = None,
) -> Optional[str]:
    """Which tier :func:`encode_pair` would serve this pair from
    (``"memory"`` / ``"disk"`` / ``None``), against the given or global
    cache — the optimizer's encode-cost discriminator."""
    return (_GLOBAL_CACHE if cache is None else cache).tier(left, right, ordering)
