"""All-Pairs — Bayardo, Ma & Srikant (WWW 2007), binary-cosine case.

The second famous descendant of this paper's prefix filter: a similarity
join for cosine thresholds built on size filtering plus prefix indexing.
This module implements the binary-vector (unweighted set) case:

* ``cos(x, y) = |x ∩ y| / sqrt(|x|·|y|)`` for sets x, y;
* **size filter** — ``cos ≥ t`` forces ``|y| ≥ t²·|x|`` (for ``|y| ≤ |x|``);
* **overlap requirement** — ``α(x, y) = ⌈t·sqrt(|x|·|y|)⌉``;
* **prefix bound** — since every eligible partner needs overlap at least
  ``t²·|x|``, keeping the first ``|x| − ⌈t²·|x|⌉ + 1`` tokens (rarest
  first) of each side preserves all qualifying pairs — the same Lemma-1
  argument as the reproduced paper, with the cosine-specific α.

Like :mod:`repro.extensions.ppjoin`, records are processed in size order
with an inverted index over prior records' prefixes, and surviving
candidates are verified by an exact sorted-merge intersection.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

__all__ = ["allpairs", "allpairs_strings"]


def allpairs(
    records: Sequence[Sequence[Any]],
    threshold: float,
    metrics: Optional[ExecutionMetrics] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> List[Tuple[int, int, float]]:
    """Self-join *records* at binary-cosine threshold *threshold*.

    Returns ``(i, j, cosine)`` triples with ``i < j``. Duplicate tokens in
    a record are ignored; empty records never match.  Candidates pass the
    bitmap stage of :mod:`repro.core.verify` (integer-exact on unweighted
    sets) before the merge, which abandons once the required overlap
    count ``⌈t·sqrt(|x|·|y|)⌉`` is unreachable; *verify_config* sets
    the signature width (None = auto, 0 = no bitmap stage).
    """
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "allpairs"
    t = threshold
    t2 = t * t

    with m.phase(PHASE_PREP):
        # Same dictionary substrate as ppjoin: records become sorted int-id
        # arrays ranked by ascending document frequency.
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
        # Bit signatures for the verification-stage bitmap bound; at equal
        # sizes the cosine overlap requirement demands fraction t of a set.
        cfg = verify_config if verify_config is not None else VerifyConfig()
        nbits = cfg.signature_bits
        if nbits is None:
            nbits = choose_signature_bits(len(dictionary), t)
        sigs: List[int] = (
            [signature_of(tokens, nbits) for _, tokens in canonical] if nbits else []
        )

    results: List[Tuple[int, int, float]] = []
    index: Dict[int, List[int]] = {}  # token id -> [record position]

    with m.phase(PHASE_SSJOIN):
        for xpos, (xid, x) in enumerate(canonical):
            size_x = len(x)
            prefix_len = size_x - math.ceil(t2 * size_x) + 1
            candidates: Dict[int, bool] = {}
            for i in range(prefix_len):
                for ypos in index.get(x[i], ()):
                    candidates[ypos] = True
            m.candidate_pairs += len(candidates)

            sig_x = sigs[xpos] if nbits else 0
            for ypos in candidates:
                yid, y = canonical[ypos]
                size_y = len(y)
                if size_y < t2 * size_x:  # size filter
                    continue
                m.verify_candidates += 1
                # Required count from the admission test itself
                # (``cosine + 1e-9 >= t``), with a generous float guard,
                # so pruning can never drop an emitted pair.
                required = required_overlap_count(
                    (t - 1e-9) * math.sqrt(size_x * size_y)
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
                cosine = overlap / math.sqrt(size_x * size_y)
                if cosine + 1e-9 >= t:
                    a, b = sorted((xid, yid))
                    results.append((a, b, cosine))

            for i in range(prefix_len):
                index.setdefault(x[i], []).append(xpos)

    with m.phase(PHASE_FILTER):
        results.sort()
        m.result_pairs = len(results)
    return results


def allpairs_strings(
    values: Sequence[str],
    threshold: float = 0.8,
    tokenizer=word_set,
    metrics: Optional[ExecutionMetrics] = None,
) -> SimilarityJoinResult:
    """String front end: All-Pairs over distinct-token sets of *values*."""
    m = metrics if metrics is not None else ExecutionMetrics()
    distinct = list(dict.fromkeys(values))
    records = [tokenizer(v) for v in distinct]
    triples = allpairs(records, threshold, metrics=m)
    pairs = [
        MatchPair(*sorted((distinct[i], distinct[j]), key=repr), similarity=cosine)
        for i, j, cosine in triples
    ]
    pairs.sort(key=lambda p: repr(p.as_tuple()))
    m.result_pairs = len(pairs)
    return SimilarityJoinResult(
        pairs=pairs, metrics=m, implementation="allpairs", threshold=threshold
    )
