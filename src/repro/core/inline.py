"""Prefix-filtered SSJoin with inlined set representation (paper Figure 9).

The plain prefix-filter plan must join candidates back with both base
relations just to regroup each group's elements. The inline variant
"carries the groups along with each R.A and S.A value that pass through the
prefix-filter": every prefix row also holds the group's full element set,
encoded as a single string (the paper's "concatenating all elements
together separating them by a special marker"). Verification then needs no
base-relation joins — only a small overlap UDF over two encoded sets.

Encoding format: entries separated by ``US`` (0x1F), each entry
``repr(element) GS(0x1D) weight``. ``repr`` is injective on the element
types used by the library (strings, ints and tuples thereof), and parsing
memoizes per encoded string since each group's encoding is a single shared
str object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREFIX,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prefixes import group_prefix
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    PRUNE_MARGIN,
    VerifyConfig,
    choose_signature_bits,
    hashed_signature,
    predicate_strictness,
)
from repro.relational.joins import hash_join
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.tokenize.sets import WeightedSet

__all__ = ["encode_set", "encoded_overlap", "inline_ssjoin"]

_ENTRY_SEP = "\x1f"
_FIELD_SEP = "\x1d"


def encode_set(wset: WeightedSet) -> str:
    """Serialize a weighted set into the inline string representation."""
    return _ENTRY_SEP.join(
        f"{e!r}{_FIELD_SEP}{w!r}" for e, w in sorted(wset.items(), key=lambda kv: repr(kv[0]))
    )


def _parse(encoded: str, cache: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Parse an encoded set into {element_repr: weight}, memoized by id.

    Keys stay as their repr strings: overlap only needs key equality, and
    repr equality coincides with element equality for library element types.
    """
    key = id(encoded)
    hit = cache.get(key)
    if hit is not None:
        return hit
    parsed: Dict[str, float] = {}
    if encoded:
        for entry in encoded.split(_ENTRY_SEP):
            erepr, _, wrepr = entry.rpartition(_FIELD_SEP)
            parsed[erepr] = float(wrepr)
    cache[key] = parsed
    return parsed


def encoded_overlap(
    left: str, right: str, cache: Optional[Dict[int, Dict[str, float]]] = None
) -> float:
    """The inline overlap UDF: ``wt(decode(left) ∩ decode(right))``.

    Intersection weight is taken from the *left* set's weights, matching
    the other implementations (which sum ``R.w``); the two only differ when
    a join deliberately weights its sides asymmetrically, as the GES
    expansion does.
    """
    c = cache if cache is not None else {}
    lw = _parse(left, c)
    rw = _parse(right, c)
    if len(rw) < len(lw):
        return sum(lw[e] for e in rw if e in lw)
    return sum(w for e, w in lw.items() if e in rw)


def _signature_stats(
    encoded: str,
    sig_cache: Dict[int, Tuple[int, int, float]],
    nbits: int,
    parse_cache: Dict[int, Dict[str, float]],
) -> Tuple[int, int, float]:
    """Per-set ``(bit signature, cardinality, max weight)``, memoized by id.

    Signatures hash element reprs with crc32 (builtin ``hash`` is salted
    per process, which would make prune counters nondeterministic); each
    group's encoding is one shared str object, so the memo hits once per
    group, like :func:`_parse`.
    """
    key = id(encoded)
    hit = sig_cache.get(key)
    if hit is not None:
        return hit
    parsed = _parse(encoded, parse_cache)
    stats = (
        hashed_signature(parsed, nbits),
        len(parsed),
        max(parsed.values()) if parsed else 0.0,
    )
    sig_cache[key] = stats
    return stats


_INLINE_SCHEMA = Schema(["a", "b", "norm", "set"])


def _inline_prefix_relation(
    prepared: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: ElementOrdering,
    side: str,
) -> Relation:
    """Prefix rows that also carry the group's encoded full set."""
    bound_fn = (
        predicate.left_filter_threshold if side == "left" else predicate.right_filter_threshold
    )
    rows: List[Tuple] = []
    for a, wset in prepared.groups.items():
        norm = prepared.norms[a]
        kept = group_prefix(wset, norm, bound_fn, ordering.key)
        if not kept:
            continue
        encoded = encode_set(wset)  # one shared str object per group
        rows.extend((a, b, norm, encoded) for b in kept)
    return Relation(_INLINE_SCHEMA, rows, name=f"inline-prefix({prepared.name})")


def inline_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> Relation:
    """Execute the Figure 9 plan; returns a :data:`RESULT_SCHEMA` relation.

    Before invoking the overlap UDF on a candidate, a crc32 bit-signature
    bound (weight-aware via the left set's max element weight) prunes
    pairs that cannot reach the pair threshold; *verify_config* tunes the
    signature width (None = auto, 0 = off).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "inline"

    with m.phase(PHASE_PREP):
        m.prepared_rows += left.num_elements + right.num_elements
        if ordering is None:
            ordering = frequency_ordering(left, right)

    with m.phase(PHASE_PREFIX):
        pr = _inline_prefix_relation(left, predicate, ordering, side="left")
        ps = _inline_prefix_relation(right, predicate, ordering, side="right")
        m.prefix_rows += len(pr) + len(ps)

    with m.phase(PHASE_SSJOIN):
        matched = hash_join(
            pr.rename({"a": "a_r", "b": "b", "norm": "norm_r", "set": "set_r"}),
            ps.rename({"a": "a_s", "b": "b_s", "norm": "norm_s", "set": "set_s"}),
            keys=[("b", "b_s")],
        )
        m.equijoin_rows += len(matched)
        candidates = matched.project(["a_r", "norm_r", "set_r", "a_s", "norm_s", "set_s"]).distinct()
        m.candidate_pairs += len(candidates)

    with m.phase(PHASE_FILTER):
        cache: Dict[int, Dict[str, float]] = {}
        pos = candidates.schema.positions(
            ["a_r", "norm_r", "set_r", "a_s", "norm_s", "set_s"]
        )
        cfg = verify_config if verify_config is not None else VerifyConfig()
        nbits = cfg.signature_bits
        if nbits is None:
            # No dictionary here; total element count over-states the
            # distinct universe, which only widens (and the clamp caps)
            # the signature.  Typical norm: mean of the predicate norms.
            n_groups = len(left.norms) + len(right.norms)
            mean_norm = (
                (sum(left.norms.values()) + sum(right.norms.values())) / n_groups
                if n_groups
                else 0.0
            )
            nbits = choose_signature_bits(
                left.num_elements + right.num_elements,
                predicate_strictness(predicate, mean_norm),
            )
        sig_cache: Dict[int, Tuple[int, int, float]] = {}
        threshold = predicate.threshold
        n_cand = bitmap_pruned = merges = 0
        out_rows: List[Tuple] = []
        for row in candidates.rows:
            a_r, norm_r, set_r, a_s, norm_s, set_s = (row[p] for p in pos)
            if nbits:
                n_cand += 1
                sl, cl, maxw = _signature_stats(set_r, sig_cache, nbits, cache)
                sr, cr, _ = _signature_stats(set_s, sig_cache, nbits, cache)
                bound = (cl + cr - (sl ^ sr).bit_count()) * 0.5 * maxw
                if bound < threshold(norm_r, norm_s) - PRUNE_MARGIN:
                    bitmap_pruned += 1
                    continue
                merges += 1
            overlap = encoded_overlap(set_r, set_s, cache)
            if predicate.satisfied(overlap, norm_r, norm_s):
                out_rows.append((a_r, a_s, overlap, norm_r, norm_s))
        m.verify_candidates += n_cand
        m.verify_bitmap_pruned += bitmap_pruned
        m.verify_merges_run += merges
        result = Relation(RESULT_SCHEMA, out_rows)
        m.output_pairs += len(result)
    return result
