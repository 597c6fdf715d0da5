"""PPJoin — the positional prefix-filter join built on this paper's ideas.

Xiao, Wang, Lin & Yu ("Efficient Similarity Joins for Near Duplicate
Detection", WWW 2008) extended the SSJoin/prefix-filter line with a
*positional* filter: because prefixes are taken under one global order,
the position at which two prefixes first intersect bounds how large their
total overlap can still get, letting candidates be abandoned before
verification. This module implements PPJoin for the unweighted-set /
Jaccard-threshold setting it was defined for — the natural "future work"
extension of the reproduced paper.

Definitions (for Jaccard threshold t, set sizes ``|x| ⩾ |y|``):

* overlap requirement ``α = ⌈ t/(1+t) · (|x|+|y|) ⌉``
  (from ``J(x,y) ⩾ t ⇔ |x∩y| ⩾ α``),
* probe-prefix length ``|x| − ⌈t·|x|⌉ + 1``, index-prefix length
  ``|y| − ⌈t·|y|⌉ + 1``,
* size filter ``|y| ⩾ ⌈t·|x|⌉``,
* positional filter: seeing a match at positions ``(i, j)``, the overlap
  can reach at most ``A[y] + 1 + min(|x|−i−1, |y|−j−1)``; below α the
  candidate is abandoned.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dictionary import TokenDictionary
from repro.core.metrics import ExecutionMetrics, PHASE_FILTER, PHASE_PREP, PHASE_SSJOIN
from repro.core.verify import (
    VerifyConfig,
    bounded_overlap_count,
    choose_signature_bits,
    required_overlap_count,
    signature_of,
)
from repro.errors import PredicateError
from repro.joins.base import MatchPair, SimilarityJoinResult
from repro.tokenize.words import word_set

__all__ = ["ppjoin", "ppjoin_strings"]


def ppjoin(
    records: Sequence[Sequence[Any]],
    threshold: float,
    metrics: Optional[ExecutionMetrics] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> List[Tuple[int, int, float]]:
    """Self-join *records* (token sets) at Jaccard threshold *threshold*.

    Returns ``(i, j, jaccard)`` triples with ``i < j`` over record indexes.
    Duplicate tokens within a record are ignored (PPJoin is defined on
    sets). Empty records never match (see the operator's degenerate-input
    note).

    Verification goes through the bitmap stage of
    :mod:`repro.core.verify` (sets are unweighted, so the XOR-popcount
    bound is integer-exact) and a merge that abandons once the required
    overlap count is unreachable; *verify_config* sets the signature
    width (None = auto, 0 = no bitmap stage).
    """
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "ppjoin"
    t = threshold

    with m.phase(PHASE_PREP):
        # Canonicalize on the dictionary substrate: intern distinct tokens
        # into dense int ids in ascending document-frequency order (the
        # same ordering principle as the paper's Sec 4.3.2), so each record
        # becomes a sorted int array — id comparison IS the global order —
        # then order records by size so the index only holds smaller sets.
        freq: Dict[Any, int] = {}
        for rec in records:
            for token in set(rec):
                freq[token] = freq.get(token, 0) + 1
        dictionary = TokenDictionary.from_frequencies(freq)
        canonical: List[Tuple[int, array]] = []
        for idx, rec in enumerate(records):
            tokens = array("q", sorted(dictionary.id_of(t) for t in set(rec)))
            if tokens:
                canonical.append((idx, tokens))
        canonical.sort(key=lambda entry: (len(entry[1]), entry[0]))
        m.prepared_rows += sum(len(tokens) for _, tokens in canonical)
        # Bit signatures for the verification-stage bitmap bound.  The
        # strictness argument is the fraction of a set the overlap
        # requirement α demands at equal sizes: α/|x| = 2t/(1+t).
        cfg = verify_config if verify_config is not None else VerifyConfig()
        nbits = cfg.signature_bits
        if nbits is None:
            nbits = choose_signature_bits(len(dictionary), 2.0 * t / (1.0 + t))
        sigs: List[int] = (
            [signature_of(tokens, nbits) for _, tokens in canonical] if nbits else []
        )

    results: List[Tuple[int, int, float]] = []
    index: Dict[int, List[Tuple[int, int]]] = {}  # token id -> [(record pos, token pos)]

    with m.phase(PHASE_SSJOIN):
        for xpos, (xid, x) in enumerate(canonical):
            size_x = len(x)
            probe_prefix = size_x - math.ceil(t * size_x) + 1
            # A[ypos] = overlap seen so far; None marks pruned candidates.
            seen: Dict[int, Optional[int]] = {}
            for i in range(probe_prefix):
                token = x[i]
                for ypos, j in index.get(token, ()):
                    _, y = canonical[ypos]
                    size_y = len(y)
                    if size_y < math.ceil(t * size_x):  # size filter
                        continue
                    state = seen.get(ypos, 0)
                    if state is None:
                        continue  # already pruned by the positional filter
                    alpha = math.ceil(t / (1 + t) * (size_x + size_y))
                    upper = state + 1 + min(size_x - i - 1, size_y - j - 1)
                    if upper >= alpha:
                        seen[ypos] = state + 1
                    else:
                        seen[ypos] = None
            m.candidate_pairs += sum(1 for v in seen.values() if v)

            # Verification: bitmap-bound candidates, then exact overlap by
            # merging the full sorted sets (abandoned once the required
            # count is unreachable).  The required count is derived from
            # the admission test ``jaccard + 1e-9 >= t`` itself (not the
            # bare α), with a generous float guard, so neither stage can
            # drop a pair the unfiltered merge would emit.
            sig_x = sigs[xpos] if nbits else 0
            for ypos, partial in seen.items():
                if not partial:
                    continue
                yid, y = canonical[ypos]
                size_y = len(y)
                m.verify_candidates += 1
                required = required_overlap_count(
                    (t - 1e-9) / (1.0 + t - 1e-9) * (size_x + size_y)
                )
                if nbits:
                    count_bound = (size_x + size_y - (sig_x ^ sigs[ypos]).bit_count()) >> 1
                    if count_bound < required:
                        m.verify_bitmap_pruned += 1
                        continue
                m.similarity_comparisons += 1
                m.verify_merges_run += 1
                # x and y are already ascending id arrays — merge directly.
                overlap = bounded_overlap_count(x, y, required)
                if overlap < 0:
                    m.verify_merges_early_exited += 1
                    continue
                union = size_x + size_y - overlap
                jaccard = overlap / union if union else 1.0
                if jaccard + 1e-9 >= t:
                    a, b = sorted((xid, yid))
                    results.append((a, b, jaccard))

            # Index this record's prefix for future probes.
            index_prefix = size_x - math.ceil(t * size_x) + 1
            for i in range(index_prefix):
                index.setdefault(x[i], []).append((xpos, i))

    with m.phase(PHASE_FILTER):
        results.sort()
        m.result_pairs = len(results)
    return results


def ppjoin_strings(
    values: Sequence[str],
    threshold: float = 0.8,
    tokenizer: Callable[[str], Sequence[Any]] = word_set,
    metrics: Optional[ExecutionMetrics] = None,
) -> SimilarityJoinResult:
    """String front end: PPJoin over distinct-token sets of *values*.

    Duplicate strings collapse; identity pairs are excluded; each unordered
    pair appears once — matching the other joins' self-join conventions.
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    distinct = list(dict.fromkeys(values))
    records = [tokenizer(v) for v in distinct]
    triples = ppjoin(records, threshold, metrics=m)
    pairs = [
        MatchPair(*sorted((distinct[i], distinct[j]), key=repr), similarity=jaccard)
        for i, j, jaccard in triples
    ]
    pairs.sort(key=lambda p: repr(p.as_tuple()))
    m.result_pairs = len(pairs)
    return SimilarityJoinResult(
        pairs=pairs, metrics=m, implementation="ppjoin", threshold=threshold
    )
