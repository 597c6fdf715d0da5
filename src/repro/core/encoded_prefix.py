"""Encoded prefix-filter SSJoin: Figure 8 over integer id columns.

Same logical plan as :mod:`repro.core.prefix_filter` — β-prefix both
sides, equi-join prefixes for candidates, verify full overlaps — but run
over :class:`~repro.core.encoded.EncodedPreparedRelation` columns:

1. **Prefix extraction** is a cumulative-weight walk over each group's
   weight array; the kept prefix is a leading *slice* of the id array
   (ids are stored in the ordering ``O``), no per-element key calls.
2. **Candidate enumeration** probes an ``int id -> [right group]``
   inverted index built from the right prefixes — or, on a self-join
   whose candidate relation is symmetric, indexes *while* probing, so
   each unordered pair of groups turns up once and is verified once for
   both of its rows (the engine's mirrored evaluation).
3. **Verification** replaces Figure 8's two hash-joins-back-to-base (the
   regroup step) with a merge-intersection kernel over the two groups'
   full sorted id arrays, summing left-side weights of shared ids — the
   same ``SUM(R.w)`` every other implementation computes.  By default
   candidates first pass through the :mod:`repro.core.verify` engine,
   which kills most non-qualifying pairs with a total-weight pre-test
   and a bitmap bound and sums
   each survivor's overlap over one set intersection, in the merge's
   order; pass ``verify_config=VerifyConfig.disabled()`` for the plain
   merge path.

Steps 2 and 3 are one kernel, :func:`candidate_verify_columns`, which the
parallel token-range shard workers call too.

Output is a :data:`~repro.core.basic.RESULT_SCHEMA` relation with exactly
the rows of the tuple-based plans (row order may differ; overlap values
agree to float round-off, absorbed by the shared ``OVERLAP_EPSILON``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.encoded import EncodedPreparedRelation, encode_pair
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREFIX,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OVERLAP_EPSILON, OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    ResultColumns,
    VerificationEngine,
    VerifyConfig,
    engine_for_encoded,
)
from repro.relational.batch import ColumnarRelation
from repro.relational.relation import Relation

__all__ = [
    "PROBE_CHUNK",
    "PrefixJoinColumns",
    "Walk",
    "candidate_verify_columns",
    "encoded_prefix_ssjoin",
    "group_prefix_lengths",
    "merge_overlap",
    "prefix_length",
]

#: Left groups probed per SSJOIN→FILTER hand-over.  Large enough that the
#: phase clocks and the engine's per-call set-up vanish; small enough that
#: a chunk's candidate lists (two containers per group) stay under the
#: cyclic collector's young-generation threshold of 700 and are freed
#: before it ever promotes them — 4096 measured 19 % slower on a 40 000-row
#: self-join, 64 to 256 the same.
PROBE_CHUNK = 256

#: ``(group positions ascending, first prefix offset to walk per group)``
#: — offsets ``None`` means every walk starts at 0.
Walk = Tuple[Sequence[int], Optional[Sequence[int]]]


def prefix_length(weights: Sequence[float], beta: float) -> int:
    """Length of the shortest prefix whose cumulative weight exceeds *beta*.

    Mirrors :func:`repro.core.prefixes.prefix_of_sorted` exactly: 0 when
    ``beta < 0`` (the group can never qualify), the whole array when no
    proper prefix exceeds β.
    """
    if beta < 0:
        return 0
    cumulative = 0.0
    for i, w in enumerate(weights):
        cumulative += w
        if cumulative > beta:
            return i + 1
    return len(weights)


def merge_overlap(
    left_ids: Sequence[int],
    left_weights: Sequence[float],
    right_ids: Sequence[int],
) -> float:
    """Merge-intersection kernel: ``SUM(left weight)`` over shared ids.

    Both id arrays are sorted ascending (the ordering ``O``), so one
    linear pass finds the intersection without hashing.
    """
    i = j = 0
    n_left = len(left_ids)
    n_right = len(right_ids)
    total = 0.0
    while i < n_left and j < n_right:
        li = left_ids[i]
        rj = right_ids[j]
        if li == rj:
            total += left_weights[i]
            i += 1
            j += 1
        elif li < rj:
            i += 1
        else:
            j += 1
    return total


def group_prefix_lengths(
    encoded: EncodedPreparedRelation, bound_fn: Callable[[float], float]
) -> List[int]:
    """β-prefix length per group (β widened by the shared epsilon, as in
    the tuple plans, so boundary pairs are never pruned).

    Public because the parallel executor computes prefixes once in the
    parent process and ships the lengths to token-range shard workers.

    Memoized on ``encoded.prefix_cache``: the lengths are a pure function
    of the encoding and the predicate bound, and a cached encoding (the
    normal case via :class:`~repro.core.encoded.EncodingCache`) is
    executed against many times — per sweep repeat, per worker count —
    so the per-group recomputation is pure waste after the first call.
    Predicates are frozen/hashable; an unhashable bound owner skips the
    cache rather than failing.
    """
    key = None
    try:
        owner = bound_fn.__self__
        hash(owner)  # unhashable owners (mutable predicates) skip the cache
        key = (getattr(bound_fn, "__name__", None), owner)
    except (AttributeError, TypeError):
        pass
    if key is not None:
        cached = encoded.prefix_cache.get(key)
        if cached is not None:
            return cached
    norms = encoded.norms
    set_norms = encoded.set_norms
    weights = encoded.weights
    lengths = [
        prefix_length(weights[g], set_norms[g] - bound_fn(norms[g]) + OVERLAP_EPSILON)
        for g in range(len(weights))
    ]
    if key is not None:
        encoded.prefix_cache[key] = lengths
    return lengths


@dataclass(frozen=True)
class PrefixJoinColumns:
    """The columnar arrays the candidate→verify kernel reads.

    ``left_ids[g]`` / ``left_weights[g]`` are the sorted parallel arrays
    of :class:`~repro.core.encoded.EncodedPreparedRelation`;
    ``left_prefix[g]`` is group *g*'s β-prefix length under the shared
    dictionary ordering.  Mirrors for the right side (whose weights are
    not needed: overlap sums left-side weights).  The sequential plan
    fills it from the encoding pair; the parallel executor extends it
    into the payload it ships to token-range shard workers.
    """

    left_keys: Sequence[Any]
    left_ids: Sequence[Sequence[int]]
    left_weights: Sequence[Sequence[float]]
    left_norms: Sequence[float]
    left_prefix: Sequence[int]
    right_keys: Sequence[Any]
    right_ids: Sequence[Sequence[int]]
    right_norms: Sequence[float]
    right_prefix: Sequence[int]
    predicate: OverlapPredicate


def first_common_prefix_token(
    left_ids: Sequence[int],
    left_k: int,
    right_ids: Sequence[int],
    right_k: int,
) -> int:
    """Smallest token id shared by the two β-prefixes, or -1 if none.

    Both arrays are ascending (the ordering ``O``), so the first match of
    a linear merge is the minimum — this is the shard-ownership test.
    """
    i = j = 0
    while i < left_k and j < right_k:
        x = left_ids[i]
        y = right_ids[j]
        if x == y:
            return x
        if x < y:
            i += 1
        else:
            j += 1
    return -1


def _candidate_chunks(
    p: PrefixJoinColumns,
    m: ExecutionMetrics,
    mirrored: bool,
    hi: Optional[int],
    left_walk: Walk,
    right_walk: Walk,
    identities: List[int],
) -> Iterator[List[Tuple[int, List[int]]]]:
    """Figure 8's candidate relation, :data:`PROBE_CHUNK` left groups at
    a time: ``(g, partners ascending)`` per group with any partner.

    Directed: index the right prefixes once, then probe each left
    prefix.  *Mirrored* (see :class:`~repro.core.verify.VerificationEngine`):
    index while probing — each group probes an index holding only the
    groups before it and is then added to it, so every unordered pair
    turns up once, at its larger member.  ``equijoin_rows`` counts the
    logical equi-join either way: a token in ``c`` prefixes on each side
    joins to ``c²`` rows, of which index-while-probing meets ``c(c−1)/2``.

    On a self-join, *identities* collects the groups whose ``(g, g)`` is
    a candidate here: both prefixes non-empty and, in a shard, the
    group's first token — the pair's smallest common one — in range.

    Prefix ids are ascending, so a shard's ``[lo, hi)`` span of a prefix
    is a slice: it starts at the walk's offset (the first id ``>= lo``)
    and a bisect finds its end.
    """
    left_ids, left_prefix = p.left_ids, p.left_prefix
    self_prefix = p.right_prefix if p.left_ids is p.right_ids else None
    index: Dict[int, List[int]] = {}
    find = index.get
    hits = walked = 0
    if not mirrored:
        with m.phase(PHASE_SSJOIN):
            right_ids, right_prefix = p.right_ids, p.right_prefix
            groups, starts = right_walk
            for h, pos in zip(groups, starts or repeat(0)):
                ids = right_ids[h]
                k = right_prefix[h]
                end = k if hi is None else bisect_left(ids, hi, pos, k)
                for t in ids[pos:end]:
                    index.setdefault(t, []).append(h)
    groups, starts = left_walk
    for at in range(0, len(groups), PROBE_CHUNK):
        chunk: List[Tuple[int, List[int]]] = []
        with m.phase(PHASE_SSJOIN):
            for g, pos in zip(
                groups[at : at + PROBE_CHUNK],
                starts[at : at + PROBE_CHUNK] if starts else repeat(0),
            ):
                lids = left_ids[g]
                k = left_prefix[g]
                end = k if hi is None else bisect_left(lids, hi, pos, k)
                if pos >= end:
                    continue
                if self_prefix is not None and pos == 0 and self_prefix[g]:
                    identities.append(g)
                # Prefix tokens are the rarest of their group, so most
                # probes miss: the matched set exists from the first hit.
                matched: Optional[set] = None
                for t in lids[pos:end]:
                    postings = find(t)
                    if postings:
                        hits += len(postings)
                        if matched is None:
                            matched = set(postings)
                        else:
                            matched.update(postings)
                        if mirrored:
                            postings.append(g)
                    elif mirrored:
                        index[t] = [g]
                if mirrored:
                    walked += end - pos
                if matched:
                    chunk.append((g, sorted(matched)))
        if chunk:
            yield chunk
    m.equijoin_rows += 2 * hits + walked if mirrored else hits


def candidate_verify_columns(
    p: PrefixJoinColumns,
    engine: Optional[VerificationEngine],
    m: ExecutionMetrics,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    left_walk: Optional[Walk] = None,
    right_walk: Optional[Walk] = None,
) -> ResultColumns:
    """The candidate→verify kernel: SSJOIN and FILTER phases of the plan.

    One entry point for the sequential plan and the token-range shard
    worker.  A shard passes its token range ``[lo, hi)`` and, per side,
    the ``(groups, first in-range prefix offsets)`` the planner recorded;
    it emits only the pairs it *owns* — those whose smallest common
    prefix token is ``>= lo`` — so the shards' rows and counters add up
    to the sequential run's.  Candidates are generated a chunk of groups
    at a time and verified at once, so no candidate list outlives its
    chunk; the two phases accumulate across chunks.

    With an *engine*, pairs go through its two bounds and intersection
    (mirrored when the engine observed that to be sound).  ``None`` is
    the plain reference path: a full :func:`merge_overlap` per directed
    candidate.  Returns the five parallel RESULT_SCHEMA columns, so every
    path feeds the batch protocol tuple-free.
    """
    left_walk = left_walk or (range(len(p.left_ids)), None)
    right_walk = right_walk or (range(len(p.right_ids)), None)
    mirrored = engine is not None and engine.mirrored
    plain: ResultColumns = ([], [], [], [], [])
    identities: List[int] = []
    for chunk in _candidate_chunks(
        p, m, mirrored, hi, left_walk, right_walk, identities
    ):
        with m.phase(PHASE_FILTER):
            if engine is not None:
                engine.evaluate(chunk, own_lo=lo)
            else:
                m.candidate_pairs += _merge_verify(p, chunk, lo, plain)
    if engine is None:
        return plain
    with m.phase(PHASE_FILTER):
        engine.evaluate_identities(identities)
        m.candidate_pairs += engine.candidate_pairs
        engine.flush(m)
        return engine.columns()


def _merge_verify(
    p: PrefixJoinColumns,
    candidates: Sequence[Tuple[int, Sequence[int]]],
    lo: Optional[int],
    out: ResultColumns,
) -> int:
    """Reference FILTER: one full merge per (owned) directed candidate,
    rows appended to *out*; returns the number of candidates verified."""
    col_ar, col_as, col_ov, col_nr, col_ns = out
    satisfied = p.predicate.satisfied
    right_ids, right_prefix = p.right_ids, p.right_prefix
    verified = 0
    for g, matches in candidates:
        lids = p.left_ids[g]
        lw = p.left_weights[g]
        k = p.left_prefix[g]
        norm_r = p.left_norms[g]
        a_r = p.left_keys[g]
        for h in matches:
            rids = right_ids[h]
            if lo is not None and (
                first_common_prefix_token(lids, k, rids, right_prefix[h]) < lo
            ):
                continue  # an earlier shard owns (and finds) this pair
            verified += 1
            overlap = merge_overlap(lids, lw, rids)
            norm_s = p.right_norms[h]
            if satisfied(overlap, norm_r, norm_s):
                col_ar.append(a_r)
                col_as.append(p.right_keys[h])
                col_ov.append(overlap)
                col_nr.append(norm_r)
                col_ns.append(norm_s)
    return verified


def encoded_prefix_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    encoding: Optional[Tuple[EncodedPreparedRelation, EncodedPreparedRelation]] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> Relation:
    """Execute the encoded Figure 8 plan; returns a RESULT_SCHEMA relation.

    *ordering* selects the dictionary order (default: joint frequency,
    identical to :func:`~repro.core.ordering.frequency_ordering`). Pass a
    prebuilt *encoding* pair to skip the cache lookup entirely.
    *verify_config* tunes the verification engine (None = auto).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "encoded-prefix"

    with m.phase(PHASE_PREP):
        if encoding is None:
            enc_left, enc_right, _ = encode_pair(left, right, ordering, metrics=m)
        else:
            enc_left, enc_right = encoding
        m.prepared_rows += enc_left.num_elements + enc_right.num_elements

    with m.phase(PHASE_PREFIX):
        left_prefix = group_prefix_lengths(enc_left, predicate.left_filter_threshold)
        right_prefix = group_prefix_lengths(enc_right, predicate.right_filter_threshold)
        m.prefix_rows += sum(left_prefix) + sum(right_prefix)

    with m.phase(PHASE_FILTER):
        engine = engine_for_encoded(
            enc_left, enc_right, predicate, left_prefix, right_prefix,
            config=verify_config,
        )
    columns = candidate_verify_columns(
        PrefixJoinColumns(
            enc_left.keys, enc_left.ids, enc_left.weights, enc_left.norms, left_prefix,
            enc_right.keys, enc_right.ids, enc_right.norms, right_prefix,
            predicate,
        ),
        engine,
        m,
    )
    result = ColumnarRelation(RESULT_SCHEMA, columns)
    m.output_pairs += len(result)
    return result
