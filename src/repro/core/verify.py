"""Bitmap-signature verification engine: prune candidates before the overlap.

The prefix-filter plans (Figures 8–9) spend most of their verification
wall time on overlap sums even though, at realistic thresholds, the
large majority of candidate pairs fail the predicate.  This module sits
between candidate generation and the final overlap check in every
prefix-filter path and kills most losers in O(words) before any overlap
is computed:

1. **Weight pre-test** — the overlap can never exceed a group's total
   weight (on a mirrored pair, the smaller of the two totals): the
   remaining-weight bound taken at both sets' first positions.  A cutoff
   above it kills the pair with three float ops and no popcount work;
   the counters call it a positional prune.
2. **Bitmap stage** — each encoded set is packed into a fixed-width bit
   signature (one Python int per group; bit ``id % nbits``).  For two
   sets ``A``, ``B`` every bit set in ``sig_A XOR sig_B`` witnesses at
   least one element of the symmetric difference, so
   ``popcount(XOR) <= |A| + |B| - 2·|A ∩ B|`` and therefore

       ``|A ∩ B| <= (|A| + |B| - popcount(sig_A ^ sig_B)) / 2``

   — a sound upper bound under *any* id→bit mapping, collisions
   included (the Bitmap Filter bound of Sandes et al.).  Note that the
   tempting ``popcount(AND)`` is **not** sound: two distinct shared ids
   colliding into one bit undercount the intersection.
3. **Intersection** — a survivor's overlap is one C-level set
   intersection of the probing group's ``{id: weight}`` dict with the
   partner's ids; the shared ids' weights are then summed left to right
   from ``0.0`` in ascending id order.  Those are the terms and the
   association of :func:`repro.core.encoded_prefix.merge_overlap`, so
   emitted overlap values are bit-identical to the unfiltered plan's
   (builtin ``sum`` compensates float sums from CPython 3.12 and
   ``math.fsum`` rounds once, so neither would be).

Stages 1 and 2 run only at a signature width above 0; the auto width
resolves to 0 for predicates too weak for pruning to pay.

Weighted soundness (satellite fix): the popcount bound counts *elements*
while the predicates threshold *weights* (overlap sums left-side
weights).  Predicates carry no per-element weight function, so the
count bounds are made weight-aware by scaling with the group's maximum
element weight: ``overlap <= |A ∩ B| · max_w(A)``.  For unweighted sets
(``max_w = 1``) the count bound is used exactly.  The ``SSJ109``
invariant rule (:mod:`repro.analysis.invariants`) asserts behaviorally
that the engine never prunes a pair the basic implementation emits.

Signature caching (satellite fix): signatures are cached columnar on the
:class:`~repro.core.encoded.EncodedPreparedRelation`, keyed by signature
width *and* guarded by the dictionary size they were packed under.  An
encoding returned by an :class:`~repro.core.encoded.EncodingCache` hit
is shared across joins whose predicates may resolve different widths;
the per-width key keeps them apart, and the universe guard rebuilds
signatures whenever the backing :class:`TokenDictionary` has grown since
packing — a stale width mapping must never mis-prune.

Mirrored evaluation: on a self-join whose candidate relation is
symmetric and whose weights depend on the token alone, the engine
evaluates each unordered pair once and emits both of its rows — the
conditions, and why they make it sound, are on
:class:`VerificationEngine`.

Every stage is observable: the counters (candidates in, position-pruned,
bitmap-pruned, intersections run) land in
:class:`~repro.core.metrics.ExecutionMetrics`.  They count evaluations
performed — every evaluation ends in exactly one of the identity fast
path, a weight pre-test prune, a bitmap prune or an intersection — so they
drop on mirrored self-joins, while ``candidate_pairs`` keeps counting the
rows of the logical plan's candidate relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import add, eq
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.core.predicate import (
    OVERLAP_EPSILON,
    OVERLAP_SHRINK,
    AbsoluteBound,
    LeftNormBound,
    MaxNormBound,
    OverlapPredicate,
    RightNormBound,
    SumNormBound,
)
from repro.errors import PlanError

if TYPE_CHECKING:  # circular-import guard: encoded.py does not need us at import time
    from repro.core.encoded import EncodedPreparedRelation

__all__ = [
    "BYPASS_STRICTNESS",
    "MAX_SIGNATURE_BITS",
    "MIN_SIGNATURE_BITS",
    "VerifyConfig",
    "VerificationEngine",
    "bounded_overlap_count",
    "choose_signature_bits",
    "engine_for_encoded",
    "estimated_prune_fraction",
    "hashed_signature",
    "max_weights_for",
    "mean_set_norm",
    "predicate_strictness",
    "required_overlap_count",
    "signature_of",
    "signatures_for",
    "total_weights_for",
    "weights_by_token_for",
]

#: The five parallel RESULT_SCHEMA output columns.
ResultColumns = Tuple[List[object], List[object], List[float], List[float], List[float]]

#: Bounds must only prune pairs the verify step would reject.  satisfied()
#: admits ``overlap + OVERLAP_EPSILON >= threshold * OVERLAP_SHRINK`` and
#: the upper bounds themselves carry ~1-ulp float noise, so pruning keeps a
#: margin of twice the shared epsilon below that admission threshold.
PRUNE_MARGIN = 2.0 * OVERLAP_EPSILON

#: Signature width limits (bits).  Small widths still prune well because
#: the XOR bound degrades only with cross-set collisions (expected
#: ``|A ∪ B|^2 / 2·nbits``), which stay negligible for word-token sets;
#: beyond 256 bits the multi-limb XOR/popcount cost grows measurably
#: (each extra 64 bits is one more limb) with no prune-rate return —
#: on the Fig-12 sweep at 60k rows, 1024-bit signatures prune ~0.2%
#: more candidates than 256-bit ones.
MIN_SIGNATURE_BITS = 64
MAX_SIGNATURE_BITS = 256

#: Predicates whose effective threshold demands less than this fraction
#: of a typical set's weight cannot be filtered profitably — the bounds
#: almost never bind, so the engine bypasses the weight pre-test and the
#: bitmap stage entirely.
BYPASS_STRICTNESS = 0.3


def signature_of(ids: Sequence[int], nbits: int) -> int:
    """Pack a sorted id array into an *nbits*-wide bit signature."""
    sig = 0
    for t in ids:
        sig |= 1 << (t % nbits)
    return sig


def hashed_signature(keys: Iterable[str], nbits: int) -> int:
    """Signature over string keys (inline plan): deterministic crc32 bits.

    Builtin ``hash`` is salted per process; crc32 keeps signatures — and
    with them the prune counters — identical across workers and runs.
    """
    sig = 0
    for k in keys:
        sig |= 1 << (crc32(k.encode("utf-8", "surrogatepass")) % nbits)
    return sig


def required_overlap_count(value: float) -> int:
    """Smallest integer overlap count that could still pass ``sim + 1e-9 >= t``.

    *value* is the exact real-valued overlap requirement (e.g.
    ``t/(1+t)·(|x|+|y|)`` for Jaccard).  The guard is deliberately
    generous — a relative 1e-9 plus an absolute 1e-6 — so float round-off
    in computing *value* can only make the filter admit a few extra
    candidates, never prune a qualifying pair.
    """
    return max(0, math.ceil(value * (1.0 - 1e-9) - 1e-6))


def bounded_overlap_count(
    x: Sequence[int], y: Sequence[int], required: int
) -> int:
    """Merge-count intersection, abandoned when *required* is unreachable.

    Returns the exact intersection size, or ``-1`` once
    ``count + min(remaining x, remaining y)`` drops below *required* —
    at which point the pair cannot qualify (unweighted extensions:
    ppjoin, allpairs).
    """
    i = j = count = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        xi, yj = x[i], y[j]
        if xi == yj:
            count += 1
            i += 1
            j += 1
        elif xi < yj:
            i += 1
            if count + min(nx - i, ny - j) < required:
                return -1
        else:
            j += 1
            if count + min(nx - i, ny - j) < required:
                return -1
    return count


def predicate_strictness(predicate: OverlapPredicate, typical_norm: float) -> float:
    """How much of a typical set the predicate demands, in [0, ∞).

    Probes the pair threshold at ``(m, m)`` for a typical norm *m* and
    normalizes by *m* — e.g. ``two_sided(f)`` yields ``f``; the Jaccard
    reduction at resemblance *t* yields ``2t/(1+t)``.  Degenerate norms
    yield 0 (nothing to filter).
    """
    if typical_norm <= 0.0:
        return 0.0
    try:
        threshold = predicate.threshold(typical_norm, typical_norm)
    except Exception:
        return 0.0
    return max(0.0, threshold / typical_norm)


def estimated_prune_fraction(strictness: float) -> float:
    """Cost-model estimate of the candidate fraction the bounds kill.

    Linear ramp from the bypass point (no pruning) toward a 0.9 cap —
    deliberately coarse; the optimizer only needs the right ordering of
    plans, not calibrated rates.
    """
    if strictness <= BYPASS_STRICTNESS:
        return 0.0
    return min(0.9, (strictness - BYPASS_STRICTNESS) / (1.0 - BYPASS_STRICTNESS))


def choose_signature_bits(universe: int, strictness: float) -> int:
    """Signature width for a dictionary of *universe* ids, or 0 to bypass.

    Width is the next power of two covering the universe, clamped to
    [:data:`MIN_SIGNATURE_BITS`, :data:`MAX_SIGNATURE_BITS`] — wider
    cannot help (ids map injectively once ``nbits >= universe``), and
    beyond the cap XOR/popcount cost grows without prune-rate return.
    Predicates below :data:`BYPASS_STRICTNESS` get width 0: their
    thresholds are too low for the bounds to bind, so signature packing
    would be pure overhead.
    """
    if universe <= 0 or strictness < BYPASS_STRICTNESS:
        return 0
    bits = 1 << max(0, universe - 1).bit_length()
    return max(MIN_SIGNATURE_BITS, min(MAX_SIGNATURE_BITS, bits))


@dataclass(frozen=True)
class VerifyConfig:
    """Tuning knob for the verification engine.

    ``signature_bits``: ``None`` resolves the width automatically from
    dictionary size and predicate strictness (a width that resolves to 0
    runs the engine without its two bounds); ``N`` fixes the width;
    ``0`` turns the engine off.  :meth:`disabled` is that ``0`` config:
    the plain reference path, one full merge per directed candidate.
    """

    signature_bits: Optional[int] = None

    def __post_init__(self) -> None:
        bits = self.signature_bits
        # bool is an int subclass; True is not a width.
        if bits is not None and (
            isinstance(bits, bool) or not isinstance(bits, int) or bits < 0
        ):
            raise PlanError(
                f"signature_bits must be None or an int >= 0, got {bits!r}"
            )

    @classmethod
    def disabled(cls) -> "VerifyConfig":
        return cls(signature_bits=0)

    @property
    def inert(self) -> bool:
        """True for the reference path (explicit width 0)."""
        return self.signature_bits == 0


def _sum_left_to_right(weights: Iterable[float]) -> float:
    """``((0.0 + w0) + w1) + …``: the association of the merge's sum.

    Builtin ``sum`` compensates float sums from CPython 3.12 (and
    ``math.fsum`` rounds once), so either can differ from the merge in
    the last bit.
    """
    return reduce(add, weights, 0.0)


# ---------------------------------------------------------------------------
# Columnar caches on EncodedPreparedRelation (see encoded.verify_cache)
# ---------------------------------------------------------------------------


def signatures_for(
    encoded: "EncodedPreparedRelation", nbits: int
) -> List[int]:
    """Per-group signatures, cached columnar on the encoded relation.

    Cache entries are keyed by width and record the dictionary size they
    were packed under; if the backing dictionary has grown since (shared
    encodings via the :class:`EncodingCache`), the stale entry is
    discarded and signatures are re-packed — a signature narrower than
    its claimed width, or packed under a different id universe than the
    other side's, could mis-prune.
    """
    cache = encoded.verify_cache
    universe = len(encoded.dictionary)
    key = ("signatures", nbits)
    entry = cache.get(key)
    if entry is not None:
        built_universe, sigs = entry
        if built_universe == universe:
            return sigs
        del cache[key]  # dictionary grew: invalidate, then extend below
    sigs = [signature_of(ids, nbits) for ids in encoded.ids]
    cache[key] = (universe, sigs)
    return sigs


def max_weights_for(encoded: "EncodedPreparedRelation") -> List[float]:
    """Per-group maximum element weight (0.0 for empty groups), cached."""
    cache = encoded.verify_cache
    cached = cache.get("max_weights")
    if cached is not None:
        return cached
    maxw = [max(w) if len(w) else 0.0 for w in encoded.weights]
    cache["max_weights"] = maxw
    return maxw


def total_weights_for(encoded: "EncodedPreparedRelation") -> List[float]:
    """Per-group total weight, cached: the left-to-right float sum a full
    merge of the group with itself would produce."""
    cache = encoded.verify_cache
    cached = cache.get("total_weights")
    if cached is None:
        cached = [_sum_left_to_right(w) for w in encoded.weights]
        cache["total_weights"] = cached
    return cached


def weights_by_token_for(encoded: "EncodedPreparedRelation") -> bool:
    """Whether every token carries one weight across all groups, cached.

    True for IDF and unit weights (a weight table keyed by element);
    :meth:`PreparedRelation.from_relation` over a per-row ``w`` column
    can violate it.  One of the three conditions of the engine's
    mirrored evaluation: only then is a pair's overlap the same float
    whichever side's weights the overlap sums.
    """
    cache = encoded.verify_cache
    cached = cache.get("weights_by_token")
    if cached is None:
        seen: Dict[int, float] = {}
        record = seen.setdefault
        cached = not any(
            record(t, w) != w
            for ids, weights in zip(encoded.ids, encoded.weights)
            for t, w in zip(ids, weights)
        )
        cache["weights_by_token"] = cached
    return cached


def mean_set_norm(encoded: "EncodedPreparedRelation") -> float:
    """Mean group set-weight — the chooser's "typical norm", cached."""
    cache = encoded.verify_cache
    cached = cache.get("mean_set_norm")
    if cached is not None:
        return cached
    n = len(encoded.set_norms)
    mean = (sum(encoded.set_norms) / n) if n else 0.0
    cache["mean_set_norm"] = mean
    return mean


def _linear_terms(
    predicate: OverlapPredicate,
) -> Optional[List[Tuple[float, float, float]]]:
    """Decompose the predicate's pair threshold into linear conjunct terms.

    Every built-in bound value is (a max of) ``fl·norm_r + fr·norm_s + off``,
    so ``threshold(norm_r, norm_s)`` equals the max over the returned
    ``(fl, fr, off)`` terms — evaluated in the same order and association
    as :meth:`Bound.value`, hence *bit-identical* to the generic path
    (``MaxNormBound`` splits into its two monotone branches; ``max`` picks
    the identical float).  The engine's hot loop hoists ``fl·norm_r`` per
    left group, dropping the per-candidate threshold to a few FLOPs.
    Returns None for unknown Bound subclasses (generic fallback).
    """
    terms: List[Tuple[float, float, float]] = []
    for b in predicate.bounds:
        if isinstance(b, AbsoluteBound):
            terms.append((0.0, 0.0, b.alpha))
        elif isinstance(b, LeftNormBound):
            terms.append((b.fraction, 0.0, b.offset))
        elif isinstance(b, RightNormBound):
            terms.append((0.0, b.fraction, b.offset))
        elif isinstance(b, MaxNormBound):
            terms.append((b.fraction, 0.0, b.offset))
            terms.append((0.0, b.fraction, b.offset))
        elif isinstance(b, SumNormBound):
            terms.append((b.left_fraction, b.right_fraction, b.offset))
        else:
            return None
    return terms


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class VerificationEngine:
    """Per-execution verification state over columnar arrays.

    Operates on plain sequences so the sequential encoded plans and the
    parallel token-range workers drive the identical kernel: same bounds,
    same summation order, bit-identical overlaps, identical counters.
    One instance per execution (or per shard); counters accumulate
    locally and are folded into :class:`ExecutionMetrics` by
    :meth:`flush`.

    **Mirrored evaluation.**  A self-join's candidate relation contains
    ``(g, h)`` and ``(h, g)`` for every unordered pair, and the two rows
    share one overlap whenever a token's weight does not depend on the
    group holding it.  The engine then evaluates each unordered pair once
    and emits both rows.  It does so only when it can observe that this
    is sound:

    * both sides are the *same* columnar arrays (``left_ids is
      right_ids``);
    * the two β-prefix length lists are equal, so the candidate relation
      is symmetric (``one_sided`` predicates fail this);
    * *weights_by_token* — every token carries one weight across all
      groups (:func:`weights_by_token_for`; per-row ``w`` columns can
      violate it), so the overlap sums the same floats in the same
      ascending-id order from either side.

    Otherwise every candidate is evaluated as a directed ``(left,
    right)`` pair, exactly as before.  Either way
    :attr:`candidate_pairs` counts the *logical plan's* candidate rows
    (both orientations), while the stage counters count the evaluations
    actually performed.

    Admitted rows are kept as ``(left position, right position,
    overlap)`` triples and materialized once, by :meth:`columns`, in
    ascending ``(left, right)`` position order — the order a directed
    probe of ascending left groups emits, whichever path ran.
    """

    __slots__ = (
        "predicate",
        "left_ids",
        "left_weights",
        "left_norms",
        "left_prefix",
        "right_ids",
        "right_norms",
        "right_prefix",
        "left_signatures",
        "right_signatures",
        "left_max_weights",
        "left_keys",
        "right_keys",
        "nbits",
        "identity",
        "mirrored",
        "_terms",
        "_symmetric",
        "_totals",
        "_rows",
        "_mirror_rows",
        "candidate_pairs",
        "candidates",
        "position_pruned",
        "bitmap_pruned",
        "merges_run",
    )

    def __init__(
        self,
        predicate: OverlapPredicate,
        left_ids: Sequence[Sequence[int]],
        left_weights: Sequence[Sequence[float]],
        left_norms: Sequence[float],
        left_prefix: Sequence[int],
        right_ids: Sequence[Sequence[int]],
        right_norms: Sequence[float],
        right_prefix: Sequence[int],
        *,
        left_keys: Sequence[object],
        right_keys: Sequence[object],
        left_max_weights: Sequence[float],
        nbits: int = 0,
        left_signatures: Optional[Sequence[int]] = None,
        right_signatures: Optional[Sequence[int]] = None,
        totals: Optional[Sequence[float]] = None,
        weights_by_token: bool = False,
    ) -> None:
        self.predicate = predicate
        self.left_ids = left_ids
        self.left_weights = left_weights
        self.left_norms = left_norms
        self.left_prefix = left_prefix
        self.right_ids = right_ids
        self.right_norms = right_norms
        self.right_prefix = right_prefix
        self.nbits = nbits if (left_signatures and right_signatures) or nbits == 0 else 0
        self.left_signatures = left_signatures
        self.right_signatures = right_signatures
        self.left_max_weights = left_max_weights
        self.left_keys = left_keys
        self.right_keys = right_keys
        # Self-join detection: when both sides are the *same* columnar
        # arrays, candidate (g, g) is a group paired with itself and its
        # overlap is exactly the group's total weight — no intersection
        # needed.
        self.identity = left_ids is right_ids
        n = len(left_ids)
        self.mirrored = (
            self.identity
            and weights_by_token
            and len(left_prefix) == len(right_prefix) == n
            and all(map(eq, left_prefix, right_prefix))
        )
        self._terms = terms = _linear_terms(predicate)
        # A threshold whose terms are closed under swapping the two norms
        # is the same float for both rows of a pair: the same products,
        # summed commutatively.
        self._symmetric = terms is not None and sorted(terms) == sorted(
            (fr, fl, off) for fl, fr, off in terms
        )
        # Total weights: prebuilt columnar (sequential plans) or filled
        # per group on first use (workers touch a range subset).
        self._totals: Sequence[Optional[float]] = (
            totals if totals is not None else [None] * n
        )
        # Admitted (left position, right position, overlap) triples: the
        # rows evaluated as given, and the mirrored (h, g) rows.
        self._rows: Tuple[List[int], List[int], List[float]] = ([], [], [])
        self._mirror_rows: Tuple[List[int], List[int], List[float]] = ([], [], [])
        self.candidate_pairs = 0
        self.candidates = 0
        self.position_pruned = 0
        self.bitmap_pruned = 0
        self.merges_run = 0

    def _total_for(self, g: int) -> float:
        """Group total, summed left to right like the merge."""
        total = self._totals[g]
        if total is None:
            total = _sum_left_to_right(self.left_weights[g])
            self._totals[g] = total  # type: ignore[index]
        return total

    def evaluate(
        self,
        candidates: Sequence[Tuple[int, Sequence[int]]],
        own_lo: Optional[int] = None,
    ) -> None:
        """Batched FILTER: verify every ``(g, matches)`` candidate group.

        Admitted pairs accumulate as position triples, read back once
        with :meth:`columns` as five parallel RESULT_SCHEMA columns — the
        encoded plans wrap them straight into a ColumnarRelation and the
        batch protocol slices it into morsels, so no row tuple is ever
        built on the hot path.  One batched call hoists every
        loop-invariant local exactly once, so a pruned candidate costs a
        handful of int/float ops.

        A survivor's overlap is one intersection of ``g``'s
        ``{id: weight}`` dict — built once per group, at its first
        survivor — with ``h``'s ids, summed as the module docstring says.

        A self-join's ``(g, g)`` candidates are not evaluated here (a
        directed probe lists them; they are skipped): they need no
        intersection and go through :meth:`evaluate_identities`.

        Mirrored contract (:attr:`mirrored`): groups arrive in ascending
        position and *matches* lists the partners ``h < g``.  Each is
        evaluated once for both rows: every bound is the minimum over
        the two orientations and is compared with the smaller of the two
        cutoffs, the overlap sums ``g``'s weights — equal, token for
        token, to ``h``'s — and each orientation is then tested against
        its own threshold.

        *own_lo*: token-range shard ownership — a pair belongs to this
        shard iff its smallest common prefix token is ``>= own_lo``.
        Every ``h`` in *matches* was discovered through an in-range
        β-prefix token, which upper-bounds the smallest common one (a
        common token below it sits inside both prefixes too).  The rule
        is symmetric in ``g`` and ``h``, so exactly one shard evaluates
        each unordered pair.  Unowned pairs are skipped without counting,
        so the counters sum to the sequential run's exactly.
        """
        out_l, out_r, out_ov = self._rows
        emit_l = out_l.append
        emit_r = out_r.append
        emit_ov = out_ov.append
        mir_l, mir_r, mir_ov = self._mirror_rows
        emit_ml = mir_l.append
        emit_mr = mir_r.append
        emit_mov = mir_ov.append
        left_ids = self.left_ids
        left_weights = self.left_weights
        left_norms = self.left_norms
        left_prefix = self.left_prefix
        right_ids = self.right_ids
        right_norms = self.right_norms
        right_prefix = self.right_prefix
        threshold = self.predicate.threshold
        nbits = self.nbits
        left_sigs = self.left_signatures
        right_sigs = self.right_signatures
        maxw_arr = self.left_max_weights
        identity = self.identity
        mirrored = self.mirrored
        totals = self._totals
        sum_left_to_right = _sum_left_to_right
        margin = PRUNE_MARGIN
        epsilon = OVERLAP_EPSILON
        shrink = OVERLAP_SHRINK
        n_cand = position_pruned = bitmap_pruned = merges = 0
        # Specialized pair threshold: per group, hoist the norm_r part of
        # each linear conjunct; the candidate loop then pays a few FLOPs,
        # not a method call (bit-identical to predicate.threshold —
        # identical products, sums, and association; see _linear_terms).
        terms = self._terms
        mode = 0
        fl0 = fr0 = off0 = fl1 = fr1 = off1 = 0.0
        if terms is not None:
            if len(terms) == 1:
                fl0, fr0, off0 = terms[0]
                mode = 1
            elif len(terms) == 2:
                (fl0, fr0, off0), (fl1, fr1, off1) = terms
                mode = 2
        # Reverse-orientation state (mirrored only).
        symmetric = self._symmetric
        b0 = b1 = theta_rev = 0.0

        for g, matches in candidates:
            lids = left_ids[g]
            nl = len(lids)
            kl = left_prefix[g]
            total_weight = totals[g]
            if total_weight is None:
                total_weight = self._total_for(g)
            # Most candidates die at the bounds, so g's weight
            # dict is built only once one of them survives.
            weight_of: Optional[Dict[int, float]] = None
            maxw = maxw_arr[g]
            norm_r = left_norms[g]
            sig = left_sigs[g] if nbits else 0
            a0 = fl0 * norm_r
            a1 = fl1 * norm_r
            if mirrored:
                b0 = fr0 * norm_r
                b1 = fr1 * norm_r
            if own_lo is None:
                n_cand += len(matches)

            for h in matches:
                if identity and h == g:
                    if own_lo is None:
                        n_cand -= 1
                    continue
                if own_lo is not None:
                    # Ownership only asks "is there a common prefix
                    # token below own_lo?" — a merge scan bounded at
                    # own_lo.
                    rids = right_ids[h]
                    kr = right_prefix[h]
                    i = j = 0
                    unowned = False
                    while i < kl and j < kr:
                        li = lids[i]
                        if li >= own_lo:
                            break
                        rj = rids[j]
                        if rj >= own_lo:
                            break
                        if li == rj:
                            unowned = True
                            break
                        if li < rj:
                            i += 1
                        else:
                            j += 1
                    if unowned:
                        continue
                    n_cand += 1
                norm_s = right_norms[h]
                if mode == 2:
                    t0 = a0 + fr0 * norm_s + off0
                    t1 = a1 + fr1 * norm_s + off1
                    theta = t0 if t0 >= t1 else t1
                elif mode == 1:
                    theta = a0 + fr0 * norm_s + off0
                else:
                    theta = threshold(norm_r, norm_s)
                if mirrored:
                    # The (h, g) row's threshold.
                    if symmetric:
                        theta_rev = theta
                    elif mode == 2:
                        t0 = fl0 * norm_s + b0 + off0
                        t1 = fl1 * norm_s + b1 + off1
                        theta_rev = t0 if t0 >= t1 else t1
                    elif mode == 1:
                        theta_rev = fl0 * norm_s + b0 + off0
                    else:
                        theta_rev = threshold(norm_s, norm_r)
                    theta_rev *= shrink
                # The admission threshold of satisfied(): the same product
                # as predicate.admission_threshold.
                theta *= shrink
                if nbits:
                    cutoff = theta - margin
                    bound_weight = total_weight
                    bound_maxw = maxw
                    if mirrored:
                        # Both rows must fail for a mirrored prune: h's
                        # threshold, total and max weight tighten it.
                        if theta_rev < theta:
                            cutoff = theta_rev - margin
                        total_h = totals[h]
                        if total_h is None:
                            total_h = self._total_for(h)
                        if total_h < bound_weight:
                            bound_weight = total_h
                        maxw_h = maxw_arr[h]
                        if maxw_h < bound_maxw:
                            bound_maxw = maxw_h
                    # Weight pre-test: the overlap can never exceed the
                    # total weight, so a cutoff above it kills the pair
                    # with zero popcount work.
                    if bound_weight < cutoff:
                        position_pruned += 1
                        continue
                    bound = (nl + len(right_ids[h])
                             - (sig ^ right_sigs[h]).bit_count()) * 0.5 * bound_maxw
                    if bound < cutoff:
                        bitmap_pruned += 1
                        continue
                if weight_of is None:
                    weight_of = dict(zip(lids, left_weights[g]))
                merges += 1
                overlap = sum_left_to_right(
                    map(weight_of.__getitem__, sorted(weight_of.keys() & right_ids[h]))
                )
                if overlap + epsilon >= theta:
                    emit_l(g)
                    emit_r(h)
                    emit_ov(overlap)
                if mirrored and overlap + epsilon >= theta_rev:
                    emit_ml(h)
                    emit_mr(g)
                    emit_mov(overlap)

        # The logical plan holds both rows of every mirrored pair.
        self.candidate_pairs += 2 * n_cand if mirrored else n_cand
        self.candidates += n_cand
        self.position_pruned += position_pruned
        self.bitmap_pruned += bitmap_pruned
        self.merges_run += merges

    def evaluate_identities(self, groups: Sequence[int]) -> None:
        """Self-join candidates ``(g, g)``: a group paired with itself.

        The overlap is exactly the group's total weight — the same
        left-to-right sum the merge would compute — so no bound and no
        intersection runs, and the whole column is tested at once; each group
        counts as one candidate of the logical plan and one evaluation.
        """
        norms = [self.left_norms[g] for g in groups]
        terms = self._terms
        if terms is None:
            threshold = self.predicate.threshold
            thetas = [threshold(n, n) for n in norms]
        else:
            # max over the linear conjuncts, each associated as in the
            # pair loop: (fl·norm_r + fr·norm_s) + off.
            thetas = [-math.inf] * len(norms)
            for fl, fr, off in terms:
                thetas = [
                    t if t >= (v := fl * n + fr * n + off) else v
                    for t, n in zip(thetas, norms)
                ]
        weights = list(map(self._total_for, groups))
        epsilon = OVERLAP_EPSILON
        shrink = OVERLAP_SHRINK
        admitted = [w + epsilon >= t * shrink for w, t in zip(weights, thetas)]
        out_l, out_r, out_ov = self._rows
        out_l.extend(compress(groups, admitted))
        out_r.extend(compress(groups, admitted))
        out_ov.extend(compress(weights, admitted))
        self.candidate_pairs += len(groups)
        self.candidates += len(groups)

    def columns(self) -> ResultColumns:
        """Every admitted row so far as five parallel RESULT_SCHEMA
        columns, in ascending ``(left, right)`` position order.

        Rows of a join of two relations were emitted in that order.  On
        a self-join the identity rows follow them, and the mirrored
        ``(h, g)`` rows come in evaluation order (ascending ``g``): one
        sort on the position pair — a few ascending runs — restores it.
        """
        left, right, overlaps = (
            rows + mirror for rows, mirror in zip(self._rows, self._mirror_rows)
        )
        if self.identity:
            width = len(self.right_ids)
            rank = [g * width + h for g, h in zip(left, right)]
            order = sorted(range(len(rank)), key=rank.__getitem__)
            left = [left[i] for i in order]
            right = [right[i] for i in order]
            overlaps = [overlaps[i] for i in order]
        left_keys, left_norms = self.left_keys, self.left_norms
        right_keys, right_norms = self.right_keys, self.right_norms
        return (
            [left_keys[g] for g in left],
            [right_keys[h] for h in right],
            overlaps,
            [left_norms[g] for g in left],
            [right_norms[h] for h in right],
        )

    def flush(self, metrics: object) -> None:
        """Fold the engine's counters into an :class:`ExecutionMetrics`."""
        metrics.verify_candidates += self.candidates  # type: ignore[attr-defined]
        metrics.verify_position_pruned += self.position_pruned  # type: ignore[attr-defined]
        metrics.verify_bitmap_pruned += self.bitmap_pruned  # type: ignore[attr-defined]
        metrics.verify_merges_run += self.merges_run  # type: ignore[attr-defined]


def resolve_signature_bits(
    enc_left: "EncodedPreparedRelation",
    enc_right: "EncodedPreparedRelation",
    predicate: OverlapPredicate,
    config: Optional[VerifyConfig],
) -> int:
    """The signature width a (possibly auto) config resolves to."""
    if config is not None and config.signature_bits is not None:
        return config.signature_bits
    typical = max(mean_set_norm(enc_left), mean_set_norm(enc_right))
    return choose_signature_bits(
        len(enc_left.dictionary), predicate_strictness(predicate, typical)
    )


def engine_for_encoded(
    enc_left: "EncodedPreparedRelation",
    enc_right: "EncodedPreparedRelation",
    predicate: OverlapPredicate,
    left_prefix: Sequence[int],
    right_prefix: Sequence[int],
    config: Optional[VerifyConfig] = None,
) -> Optional[VerificationEngine]:
    """Build the engine for an encoded plan execution, or ``None`` for
    the inert config (callers then run the plain reference path)."""
    cfg = config if config is not None else VerifyConfig()
    if cfg.inert:
        return None
    nbits = resolve_signature_bits(enc_left, enc_right, predicate, cfg)
    left_sigs = signatures_for(enc_left, nbits) if nbits else None
    right_sigs = (
        (left_sigs if enc_right is enc_left else signatures_for(enc_right, nbits))
        if nbits
        else None
    )
    return VerificationEngine(
        predicate,
        enc_left.ids,
        enc_left.weights,
        enc_left.norms,
        left_prefix,
        enc_right.ids,
        enc_right.norms,
        right_prefix,
        nbits=nbits,
        left_signatures=left_sigs,
        right_signatures=right_sigs,
        left_max_weights=max_weights_for(enc_left),
        totals=total_weights_for(enc_left),
        left_keys=enc_left.keys,
        right_keys=enc_right.keys,
        weights_by_token=enc_right is enc_left and weights_by_token_for(enc_left),
    )
