"""Brute-force oracles: what a join must return, by definition.

Nothing here goes through ``repro.core``, ``repro.joins`` or
``repro.relational``: strings are tokenized and weighed with
``repro.tokenize`` and compared with ``repro.sim``, pair by pair. The full
oracles are quadratic and serve the 1 000-row paper plans; the 25 000 and
40 000-row joins get :func:`spot_check`, which verifies every reported pair
and, for a seeded sample of rows, finds every partner the definition gives
them — exhaustively, through an inverted index that prunes only rows sharing
no token at all.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.sim.edit import edit_similarity, edit_similarity_at_least
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import IDFWeights, build_weighted_set
from repro.tokenize.words import words

#: Pairs whose score is this close to the threshold may fall either way
#: (implementations sum weights in different orders).
BOUNDARY = 1e-6

Row = Tuple[Any, ...]


def weighted_sets(values: Sequence[str]) -> Dict[str, WeightedSet]:
    """IDF-weighted word multisets of the distinct non-empty strings
    (``N = |R| + |S|`` with both sides the same relation, as the joins fit it)."""
    tokens = [words(v) for v in values]
    table = IDFWeights.fit_two(tokens, tokens)
    sets = {v: build_weighted_set(t, weights=table) for v, t in zip(values, tokens)}
    return {v: s for v, s in sets.items() if len(s)}


def resemblance(a: WeightedSet, b: WeightedSet, overlap: float) -> float:
    return overlap / (a.norm + b.norm - overlap)


def containment(a: WeightedSet, b: WeightedSet, overlap: float) -> float:
    """Two-sided: the smaller of the two containments."""
    return min(overlap / a.norm, overlap / b.norm)


def jaccard_pairs(values: Sequence[str], threshold: float) -> List[Row]:
    """Every unordered pair with ``JR >= threshold``, as (left, right, JR)."""
    sets = sorted(weighted_sets(values).items(), key=lambda kv: repr(kv[0]))
    out: List[Row] = []
    for i, (a, sa) in enumerate(sets):
        for b, sb in sets[i + 1:]:
            score = sa.jaccard_resemblance(sb)
            if score + 1e-9 >= threshold:
                out.append((a, b, score))
    return out


def edit_pairs(values: Sequence[str], threshold: float) -> List[Row]:
    """Every unordered pair with edit similarity ``>= threshold``."""
    distinct = sorted(set(values), key=repr)
    return [
        (a, b, edit_similarity(a, b))
        for i, a in enumerate(distinct)
        for b in distinct[i + 1:]
        if edit_similarity_at_least(a, b, threshold)
    ]


def spot_check(
    values: Sequence[str],
    reported: Dict[float, Dict[Tuple[str, str], float]],
    score: Any,
    seed: int,
    samples: int = 200,
) -> List[str]:
    """Check join results of one relation at several thresholds.

    *reported* maps threshold -> {(a, b): value}, holding each pair in the
    directions the join reports. *score* is :func:`resemblance` (the value
    is then the score, and (a, a) is not a pair) or :func:`containment`
    (the value is the overlap, and (a, a) is a pair). Returns the
    discrepancies found; an empty list means the results are correct on all
    reported pairs and complete for the sampled rows.
    """
    sets = weighted_sets(values)
    reflexive = score is containment
    errors: List[str] = []

    def judge(a: str, b: str, overlap: float) -> None:
        sa, sb = sets[a], sets[b]
        s = score(sa, sb, overlap)
        for threshold, pairs in reported.items():
            got = pairs.get((a, b), pairs.get((b, a)))
            if got is None:
                if s >= threshold + BOUNDARY:
                    errors.append(f"missing at {threshold}: {a!r} ~ {b!r} scores {s:.6f}")
            elif s < threshold - BOUNDARY:
                errors.append(f"spurious at {threshold}: {a!r} ~ {b!r} scores {s:.6f}")
            elif abs(got - (overlap if reflexive else s)) > BOUNDARY:
                errors.append(f"wrong value at {threshold}: {a!r} ~ {b!r} reported {got!r}")

    for pairs in reported.values():
        for a, b in pairs:
            if a not in sets or b not in sets:
                errors.append(f"reported a string with no tokens: {a!r} ~ {b!r}")
    if errors:
        return errors
    # Precision: every reported pair, by the definition.
    for a, b in {tuple(sorted(p)) for pairs in reported.values() for p in pairs}:
        judge(a, b, sets[a].overlap(sets[b]))

    # Recall: every row sharing a token with a sampled row, by the definition.
    keys = list(sets)
    postings: Dict[Any, List[int]] = {}
    for i, key in enumerate(keys):
        for element in sets[key]:
            postings.setdefault(element, []).append(i)
    rng = random.Random(seed)
    lowest = min(reported) - BOUNDARY
    for i in rng.sample(range(len(keys)), min(samples, len(keys))):
        overlaps: Dict[int, float] = {}
        for element, weight in sets[keys[i]].items():
            for j in postings[element]:
                overlaps[j] = overlaps.get(j, 0.0) + weight
        # Neither score can exceed overlap / norm of the sampled row.
        enough = lowest * sets[keys[i]].norm
        for j, overlap in overlaps.items():
            if overlap >= enough and (j != i or reflexive):
                judge(keys[i], keys[j], overlap)
    return errors
