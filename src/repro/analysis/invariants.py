"""SSJoin invariant linter: Lemma-1 safety, statically checked.

The prefix-filter is only a *filter* (paper Lemma 1, Section 4.3.2) when
three things agree across the whole physical plan:

1. the **β-bound** ``β = wt(Set(a)) − α`` uses a *sound* per-side lower
   bound on α (Section 4.2's normalized-predicate rule),
2. build and probe sides order elements under the **same global ordering
   O** (one :class:`ElementOrdering` / one :class:`TokenDictionary`), and
3. the **verify step** accepts exactly the pairs the predicate family
   admits (``overlap ⩾ threshold`` with the shared epsilon — never a
   float-equality test).

Each rule here checks one of those statically — before any row is
touched — and emits structured diagnostics. Wired into the facade as
``SSJoin(..., verify=True)`` and the CLI as ``repro analyze``.

Rules (catalog: ``docs/analysis_rules.md``):

``SSJ101`` β-bound inconsistency — a per-side filter threshold exceeds
the pair threshold for some norms, so prefixes would be too short and
results silently lost.
``SSJ102`` ordering mismatch — the two sides of an encoded plan disagree
on O (different dictionaries, unsorted id arrays, or an encoding built
for different inputs).
``SSJ103`` float-equality threshold test in a predicate/bound method.
``SSJ104`` verify-step mismatch — ``satisfied`` disagrees with
``threshold`` (drops boundary pairs or admits sub-threshold ones).
``SSJ105`` non-monotone bound (warning) — threshold decreasing in a
norm, suspicious for every family in Example 2.
``SSJ106`` unknown implementation name.
``SSJ107`` degenerate prefix (warning) — the filtered side's bound is
⩽ 0 for every group, so the "prefix" keeps whole sets.
``SSJ108`` shard-coverage violation — a parallel shard plan does not
cover its universe exactly once (token ranges with a gap/overlap, or
group positions missing/duplicated), so the merged result would drop or
double pairs. Checked by the executor before any shard is dispatched.
``SSJ109`` verification-filter over-prune — behavioral audit of the
bitmap-signature verification engine (:mod:`repro.core.verify`): on
small inputs the encoded-prefix plan is executed at deliberately hostile
signature widths (8 bits forces heavy bit collisions, 64 is the floor
width) and its rows must equal the basic implementation's exactly — a
missing pair means a bound pruned a qualifying candidate, an extra or
changed row means the filter corrupted verification.  Skipped for
inputs above the probe budget (the static rules still run).
``SSJ114`` stale persisted artifact — a disk-backed artifact (encoding,
inverted index, verify cache, table manifest) whose dictionary-generation
stamp disagrees with the dictionary its page file ships, meaning its
integer ids would decode through the wrong interning table. Swept
statically over every stamped segment by :func:`verify_storage`; the
runtime decode path raises :class:`repro.errors.StaleArtifactError` on
the same condition.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AnalysisReport,
)
from repro.core.encoded import EncodedPreparedRelation
from repro.core.optimizer import IMPLEMENTATIONS
from repro.core.ordering import ElementOrdering
from repro.core.predicate import Bound, OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.errors import AnalysisError, StorageError

__all__ = [
    "verify_ssjoin",
    "check_ssjoin",
    "verify_shards",
    "check_shards",
    "verify_storage",
    "KNOWN_IMPLEMENTATIONS",
]

KNOWN_IMPLEMENTATIONS = ("auto",) + IMPLEMENTATIONS

#: Implementations that prefix-filter (and therefore lean on Lemma 1).
_PREFIX_FAMILY = tuple(i for i in IMPLEMENTATIONS if i != "basic")

#: Slack for the soundness comparisons — float-arithmetic noise only;
#: anything beyond this is a genuine β inconsistency.
_TOLERANCE = 1e-9

#: Canonical norm sample points; actual group norms are added on top.
_NORM_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 1000.0)


def _norm_samples(relations: Iterable[Optional[PreparedRelation]]) -> List[float]:
    values = set(_NORM_GRID)
    for rel in relations:
        if rel is None:
            continue
        norms = sorted(rel.norms.values())
        # Endpoints + a few interior points keep the grid small but real.
        for n in norms[:3] + norms[-3:]:
            values.add(float(n))
    return sorted(values)


# ---------------------------------------------------------------------------
# SSJ101 / SSJ105 — bound soundness and monotonicity
# ---------------------------------------------------------------------------


def _check_bound_soundness(
    report: AnalysisReport,
    bounds: Sequence[Bound],
    grid: Sequence[float],
) -> None:
    for i, bound in enumerate(bounds):
        location = f"predicate.bounds[{i}]"
        bad_left: Optional[Tuple[float, float]] = None
        bad_right: Optional[Tuple[float, float]] = None
        non_monotone = False
        try:
            matrix: List[List[float]] = []
            for ln in grid:
                lb_left = bound.lower_bound_left(ln)
                row: List[float] = []
                for rn in grid:
                    value = bound.value(ln, rn)
                    row.append(value)
                    if lb_left > value + _TOLERANCE and bad_left is None:
                        bad_left = (ln, rn)
                    if bound.lower_bound_right(rn) > value + _TOLERANCE and bad_right is None:
                        bad_right = (ln, rn)
                matrix.append(row)
            # Monotone non-decreasing in each norm separately (grid is
            # ascending, so compare neighbors along rows and columns).
            for i in range(len(grid)):
                for j in range(1, len(grid)):
                    if matrix[i][j] < matrix[i][j - 1] - _TOLERANCE:
                        non_monotone = True
                    if matrix[j][i] < matrix[j - 1][i] - _TOLERANCE:
                        non_monotone = True
        except Exception as exc:
            report.add(
                "SSJ101",
                SEVERITY_ERROR,
                f"bound {bound!r} raised {type(exc).__name__} while probing "
                f"norm samples: {exc}",
                location,
                hint="bounds must be total over non-negative norms",
            )
            continue
        if bad_left is not None:
            ln, rn = bad_left
            report.add(
                "SSJ101",
                SEVERITY_ERROR,
                f"β-bound inconsistency: lower_bound_left({ln:g}) = "
                f"{bound.lower_bound_left(ln):g} exceeds value({ln:g}, {rn:g}) = "
                f"{bound.value(ln, rn):g}; the left prefix would be too short "
                "and matching pairs silently dropped",
                location,
                hint="lower_bound_left(l) must be <= value(l, r) for every r >= 0 "
                "(Lemma 1 / Section 4.2)",
            )
        if bad_right is not None:
            ln, rn = bad_right
            report.add(
                "SSJ101",
                SEVERITY_ERROR,
                f"β-bound inconsistency: lower_bound_right({rn:g}) = "
                f"{bound.lower_bound_right(rn):g} exceeds value({ln:g}, {rn:g}) = "
                f"{bound.value(ln, rn):g}; the right prefix would be too short "
                "and matching pairs silently dropped",
                location,
                hint="lower_bound_right(r) must be <= value(l, r) for every l >= 0 "
                "(Lemma 1 / Section 4.2)",
            )
        if non_monotone:
            report.add(
                "SSJ105",
                SEVERITY_WARNING,
                f"bound {bound!r} is not monotone non-decreasing in the norms; "
                "no predicate family of Example 2 behaves this way",
                location,
            )


# ---------------------------------------------------------------------------
# SSJ103 — float-equality threshold tests (ast inspection)
# ---------------------------------------------------------------------------

_NUMERIC_METHODS = (
    "value",
    "lower_bound_left",
    "lower_bound_right",
    "threshold",
    "satisfied",
    "left_filter_threshold",
    "right_filter_threshold",
)


def _float_equality_in_source(fn: object) -> Optional[int]:
    """Line offset of an ``==``/``!=`` comparison in *fn*'s body, if any."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))  # type: ignore[arg-type]
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            # `x is None` style identity tests are fine and not Compare/Eq;
            # any value equality inside a threshold method is the hazard.
            return node.lineno
    return None


def _check_float_equality(
    report: AnalysisReport, predicate: OverlapPredicate
) -> None:
    subjects: List[Tuple[str, object]] = [("predicate", type(predicate))]
    for i, bound in enumerate(predicate.bounds):
        subjects.append((f"predicate.bounds[{i}]", type(bound)))
    seen_types = set()
    for location, cls in subjects:
        if cls in seen_types:
            continue
        seen_types.add(cls)
        for method_name in _NUMERIC_METHODS:
            fn = cls.__dict__.get(method_name)
            if fn is None:
                continue
            line = _float_equality_in_source(fn)
            if line is not None:
                report.add(
                    "SSJ103",
                    SEVERITY_ERROR,
                    f"{cls.__name__}.{method_name} compares with ==/!= "
                    "(float-equality threshold test); boundary pairs will "
                    "flip nondeterministically with summation order",
                    f"{location}.{method_name}",
                    hint="use >= / <= with the shared OVERLAP_EPSILON",
                )


# ---------------------------------------------------------------------------
# SSJ104 — verify-step agreement with the predicate family
# ---------------------------------------------------------------------------


def _check_verify_step(
    report: AnalysisReport,
    predicate: OverlapPredicate,
    grid: Sequence[float],
) -> None:
    probe_norms = [n for n in grid if 0.0 < n <= 100.0][:6] or [1.0]
    for ln in probe_norms:
        for rn in probe_norms:
            try:
                t = predicate.threshold(ln, rn)
                at = predicate.satisfied(t, ln, rn)
                below = predicate.satisfied(t - max(0.01, abs(t) * 0.01), ln, rn)
                above = predicate.satisfied(t + max(0.01, abs(t) * 0.01), ln, rn)
            except Exception as exc:
                report.add(
                    "SSJ104",
                    SEVERITY_ERROR,
                    f"predicate raised {type(exc).__name__} during the "
                    f"verify-step probe at norms ({ln:g}, {rn:g}): {exc}",
                    "predicate.satisfied",
                )
                return
            if not at or not above:
                report.add(
                    "SSJ104",
                    SEVERITY_ERROR,
                    "verify step rejects pairs meeting the threshold at norms "
                    f"({ln:g}, {rn:g}): overlap >= threshold must satisfy the "
                    "predicate (boundary pairs are matches under Definition 1)",
                    "predicate.satisfied",
                    hint="satisfied() must implement overlap + eps >= threshold()",
                )
                return
            if t > 0.05 and below:
                report.add(
                    "SSJ104",
                    SEVERITY_ERROR,
                    "verify step admits sub-threshold overlaps at norms "
                    f"({ln:g}, {rn:g}); the predicate family and the verify "
                    "comparison disagree",
                    "predicate.satisfied",
                    hint="satisfied() must implement overlap + eps >= threshold()",
                )
                return


# ---------------------------------------------------------------------------
# SSJ102 — one ordering O across both sides of an encoded plan
# ---------------------------------------------------------------------------


def _ids_sorted(encoded: EncodedPreparedRelation) -> bool:
    for ids in encoded.ids:
        for i in range(1, len(ids)):
            if ids[i - 1] >= ids[i]:
                return False
    return True


def _check_encoding(
    report: AnalysisReport,
    left: PreparedRelation,
    right: PreparedRelation,
    encoding: Tuple[EncodedPreparedRelation, EncodedPreparedRelation],
    ordering: Optional[ElementOrdering],
) -> None:
    enc_left, enc_right = encoding
    for side, enc in (("left", enc_left), ("right", enc_right)):
        if not _ids_sorted(enc):
            report.add(
                "SSJ102",
                SEVERITY_ERROR,
                f"{side} encoding has id arrays not strictly ascending; the "
                "ordering O is violated and prefix slices are meaningless",
                f"encoding.{side}",
                hint="encode with TokenDictionary.encode_sorted",
            )
    dl, dr = enc_left.dictionary, enc_right.dictionary
    if dl is not dr and dl._ids != dr._ids:
        report.add(
            "SSJ102",
            SEVERITY_ERROR,
            "build and probe sides are encoded under different dictionaries "
            f"({dl!r} vs {dr!r}); shared elements get different ids, so the "
            "prefix equi-join silently loses results",
            "encoding",
            hint="encode both sides with one TokenDictionary built over the "
            "joint universe (Section 4.3.2's single global ordering O)",
        )
    for side, enc, rel in (("left", enc_left, left), ("right", enc_right, right)):
        cached = enc.prepared
        if cached is not rel and (
            cached.groups != rel.groups or cached.norms != rel.norms
        ):
            report.add(
                "SSJ102",
                SEVERITY_ERROR,
                f"{side} encoding was built for a different relation "
                f"({cached.name!r}) than the plan input ({rel.name!r})",
                f"encoding.{side}",
                hint="re-encode after changing the inputs (the EncodingCache "
                "verifies content identity for exactly this reason)",
            )
    if ordering is not None and dl is dr:
        # The dictionary claims to realize *ordering*: spot-check that id
        # order and rank order agree on a sample of interned elements.
        sample = list(dl._ids.items())[:64]
        by_id = [e for e, _ in sorted(sample, key=lambda ei: ei[1])]
        by_rank = sorted(by_id, key=ordering.key)
        if by_id != by_rank:
            report.add(
                "SSJ102",
                SEVERITY_ERROR,
                "the encoding dictionary's id order disagrees with the "
                f"supplied ElementOrdering ({ordering.description!r}); build "
                "and probe would prefix under different orders O",
                "encoding.dictionary",
                hint="build the dictionary with "
                "TokenDictionary.from_relations(..., ordering=ordering)",
            )


# ---------------------------------------------------------------------------
# SSJ107 — degenerate prefixes (performance, not correctness)
# ---------------------------------------------------------------------------


def _check_degenerate_prefix(
    report: AnalysisReport,
    left: Optional[PreparedRelation],
    right: Optional[PreparedRelation],
    predicate: OverlapPredicate,
    implementation: str,
) -> None:
    if implementation not in _PREFIX_FAMILY:
        return
    sides = [("left", left, predicate.left_filter_threshold)]
    if implementation != "probe":
        # The probe plan only prefixes the probing (left) side.
        sides.append(("right", right, predicate.right_filter_threshold))
    for name, rel, threshold_fn in sides:
        if rel is None or not rel.norms:
            continue
        if all(threshold_fn(float(n)) <= 0.0 for n in rel.norms.values()):
            report.add(
                "SSJ107",
                SEVERITY_WARNING,
                f"the {name} side's filter threshold is <= 0 for every group: "
                "its 'prefix' keeps whole sets and filters nothing",
                f"{name}",
                hint="expected for the unnormalized side of a 1-sided "
                "predicate (Section 4.2); otherwise check the bound",
            )


# ---------------------------------------------------------------------------
# SSJ109 — the verification engine must never prune an emitted pair
# ---------------------------------------------------------------------------

#: Largest input (total elements, both sides) the SSJ109 behavioral probe
#: will execute; beyond this the rule is skipped to keep ``verify=True``
#: cheap relative to the join itself.
_VERIFY_FILTER_BUDGET = 2000

#: Signature widths the probe sweeps: 8 bits forces heavy bit collisions
#: (the XOR bound at its weakest — soundness must not depend on width),
#: 64 is the production floor width.
_VERIFY_FILTER_WIDTHS = (8, 64)


def _check_verify_filter(
    report: AnalysisReport,
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
) -> None:
    if left.num_elements + right.num_elements > _VERIFY_FILTER_BUDGET:
        return
    # Imported here: repro.analysis sits above the executable plans, and
    # the behavioral probe is the only rule that runs them.
    from repro.core.basic import basic_ssjoin
    from repro.core.encoded_prefix import encoded_prefix_ssjoin
    from repro.core.verify import VerifyConfig

    try:
        expected = set(basic_ssjoin(left, right, predicate).rows)
    except Exception as exc:
        report.add(
            "SSJ109",
            SEVERITY_ERROR,
            f"basic implementation raised {type(exc).__name__} during the "
            f"verification-filter probe: {exc}",
            "verify_filter",
        )
        return
    for width in _VERIFY_FILTER_WIDTHS:
        config = VerifyConfig(signature_bits=width)
        try:
            got = set(
                encoded_prefix_ssjoin(
                    left, right, predicate, verify_config=config
                ).rows
            )
        except Exception as exc:
            report.add(
                "SSJ109",
                SEVERITY_ERROR,
                f"encoded-prefix plan raised {type(exc).__name__} at "
                f"signature width {width}: {exc}",
                "verify_filter",
            )
            return
        missing = expected - got
        extra = got - expected
        if missing:
            sample = sorted(missing, key=repr)[:3]
            report.add(
                "SSJ109",
                SEVERITY_ERROR,
                f"verification filter pruned {len(missing)} pair(s) the basic "
                f"implementation emits at signature width {width}, e.g. "
                f"{sample}; the weight or bitmap bound is unsound",
                "verify_filter",
                hint="bounds may only reject pairs below threshold - "
                "PRUNE_MARGIN; check the total-weight pre-test, the XOR-popcount "
                "and max-weight scaling",
            )
        if extra:
            sample = sorted(extra, key=repr)[:3]
            report.add(
                "SSJ109",
                SEVERITY_ERROR,
                f"verification filter emitted {len(extra)} row(s) the basic "
                f"implementation does not at signature width {width}, e.g. "
                f"{sample}; overlap values or admissions were corrupted",
                "verify_filter",
                hint="the engine's intersection must sum the same weights "
                "in the same order as merge_overlap",
            )
        if missing or extra:
            return


# ---------------------------------------------------------------------------
# SSJ108 — parallel shard plans must cover the universe exactly once
# ---------------------------------------------------------------------------


def verify_shards(shards: Sequence[object], universe: int) -> AnalysisReport:
    """Check a parallel shard plan against the coverage invariant.

    *universe* is the size of the space the plan partitions: the
    dictionary size for token-range shards, the left group count for
    group-hash shards.  Token-range shards must tile ``[0, universe)``
    contiguously with no gap or overlap; group-hash shards' position
    lists must form an exact partition of ``range(universe)``.  Either
    violation means the merged parallel result would silently drop or
    duplicate pairs — the one failure mode a parallel join must never
    have.
    """
    # Imported here (not at module top): repro.parallel imports this
    # module for its pre-dispatch check, so the top-level edge must stay
    # one-directional (analysis -> parallel only inside functions).
    from repro.parallel.shards import (
        KIND_GROUP_HASH,
        KIND_TOKEN_RANGE,
        ShardDescriptor,
    )

    report = AnalysisReport()
    if universe < 0:
        report.add(
            "SSJ108", SEVERITY_ERROR,
            f"shard universe must be >= 0, got {universe}", "shards",
        )
        return report
    if not shards:
        if universe > 0:
            report.add(
                "SSJ108",
                SEVERITY_ERROR,
                f"empty shard plan over a universe of {universe}: every "
                "unit of work would be dropped",
                "shards",
            )
        return report

    kinds = {getattr(s, "kind", None) for s in shards}
    if len(kinds) > 1 or not all(isinstance(s, ShardDescriptor) for s in shards):
        report.add(
            "SSJ108",
            SEVERITY_ERROR,
            f"shard plan mixes kinds {sorted(str(k) for k in kinds)}; a plan "
            "must be all token-range or all group-hash",
            "shards",
        )
        return report
    ids = [s.shard_id for s in shards]  # type: ignore[attr-defined]
    if len(set(ids)) != len(ids):
        report.add(
            "SSJ108", SEVERITY_ERROR,
            "duplicate shard_id in plan; per-shard metrics would collide",
            "shards",
        )

    kind = next(iter(kinds))
    if kind == KIND_TOKEN_RANGE:
        ordered = sorted(shards, key=lambda s: s.lo)  # type: ignore[attr-defined]
        expected_lo = 0
        for s in ordered:
            if s.lo >= s.hi:
                report.add(
                    "SSJ108", SEVERITY_ERROR,
                    f"shard {s.shard_id} has empty or inverted range "
                    f"[{s.lo}, {s.hi})", f"shards[{s.shard_id}]",
                )
                return report
            if s.lo != expected_lo:
                gap_or_overlap = "overlap" if s.lo < expected_lo else "gap"
                report.add(
                    "SSJ108",
                    SEVERITY_ERROR,
                    f"token-range {gap_or_overlap} at id {min(s.lo, expected_lo)}: "
                    f"shard {s.shard_id} starts at {s.lo}, expected {expected_lo}; "
                    "candidate pairs would be "
                    + ("enumerated twice" if s.lo < expected_lo else "lost"),
                    f"shards[{s.shard_id}]",
                    hint="ranges must tile [0, universe) contiguously",
                )
                return report
            expected_lo = s.hi
        if expected_lo != universe:
            report.add(
                "SSJ108",
                SEVERITY_ERROR,
                f"token ranges end at {expected_lo} but the dictionary has "
                f"{universe} ids; trailing tokens would never be probed",
                "shards",
                hint="the last shard's hi must equal the universe size",
            )
    elif kind == KIND_GROUP_HASH:
        positions: List[int] = []
        for s in shards:
            positions.extend(s.group_positions)  # type: ignore[attr-defined]
        if sorted(positions) != list(range(universe)):
            missing = sorted(set(range(universe)) - set(positions))[:5]
            dupes = sorted(
                {p for p in positions if positions.count(p) > 1}
            )[:5]
            report.add(
                "SSJ108",
                SEVERITY_ERROR,
                "group-hash shards do not partition the left groups exactly"
                + (f"; missing positions {missing}" if missing else "")
                + (f"; duplicated positions {dupes}" if dupes else ""),
                "shards",
                hint="every group position must appear in exactly one shard",
            )
    else:
        report.add(
            "SSJ108", SEVERITY_ERROR,
            f"unknown shard kind {kind!r}", "shards",
        )
    return report


def check_shards(shards: Sequence[object], universe: int) -> AnalysisReport:
    """Like :func:`verify_shards` but raises :class:`AnalysisError`."""
    report = verify_shards(shards, universe)
    if not report.ok:
        raise AnalysisError(
            f"shard coverage verification failed with "
            f"{len(report.errors())} error(s)",
            report.errors(),
        )
    return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_ssjoin(
    left: Optional[PreparedRelation],
    right: Optional[PreparedRelation],
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    implementation: str = "auto",
    encoding: Optional[
        Tuple[EncodedPreparedRelation, EncodedPreparedRelation]
    ] = None,
) -> AnalysisReport:
    """Run every SSJoin invariant rule; returns the structured report.

    *left*/*right* may be ``None`` for a data-free predicate audit (the
    norm grid then uses canonical sample points only).
    """
    report = AnalysisReport()
    if implementation not in KNOWN_IMPLEMENTATIONS:
        report.add(
            "SSJ106",
            SEVERITY_ERROR,
            f"unknown implementation {implementation!r}; expected one of "
            f"{'/'.join(KNOWN_IMPLEMENTATIONS)}",
            "implementation",
        )
    grid = _norm_samples((left, right))
    _check_bound_soundness(report, predicate.bounds, grid)
    _check_float_equality(report, predicate)
    _check_verify_step(report, predicate, grid)
    if encoding is not None and left is not None and right is not None:
        _check_encoding(report, left, right, encoding, ordering)
    _check_degenerate_prefix(report, left, right, predicate, implementation)
    if left is not None and right is not None and report.ok:
        _check_verify_filter(report, left, right, predicate)
    return report


def check_ssjoin(
    left: Optional[PreparedRelation],
    right: Optional[PreparedRelation],
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    implementation: str = "auto",
    encoding: Optional[
        Tuple[EncodedPreparedRelation, EncodedPreparedRelation]
    ] = None,
) -> AnalysisReport:
    """Like :func:`verify_ssjoin` but raises :class:`AnalysisError` on errors.

    Returns the report (with any warnings) when the plan is safe.
    """
    report = verify_ssjoin(
        left, right, predicate, ordering, implementation, encoding
    )
    if not report.ok:
        raise AnalysisError(
            f"SSJoin invariant verification failed with "
            f"{len(report.errors())} error(s)",
            report.errors(),
        )
    return report


# ---------------------------------------------------------------------------
# SSJ114 — persisted artifacts must match the attached dictionary generation
# ---------------------------------------------------------------------------


def verify_storage(path: str) -> AnalysisReport:
    """SSJ114: audit every generation stamp inside an ingested page file.

    The storage layer stamps each persisted artifact (encoding, inverted
    index, verify cache, table manifest) with the **dictionary-generation
    fingerprint** it was built under — a content digest of the complete
    ``element → id`` assignment. An artifact whose stamp disagrees with
    the dictionary the file actually ships is *stale*: its integer ids
    decode through the wrong interning table, which silently remaps
    tokens instead of failing. The runtime decode path raises
    :class:`repro.errors.StaleArtifactError` on first touch; this rule is
    the static twin — it sweeps every stamped segment up front (including
    ones a given workload would never decode) and reports each mismatch
    as a structured ERROR.
    """
    # Imported here (not at module top): analysis must stay importable
    # without the storage layer loaded, mirroring the parallel rule.
    from repro.storage import codecs
    from repro.storage.pages import KIND_META, PageFileReader

    report = AnalysisReport()
    location = str(path)
    try:
        reader = PageFileReader(path)
    except (OSError, StorageError) as exc:
        report.add(
            "SSJ114", SEVERITY_ERROR,
            f"unreadable page file: {exc}", location,
            hint="re-ingest the table with `repro ingest`",
        )
        return report
    try:
        try:
            _, generation = codecs.read_dictionary(reader)
        except StorageError as exc:
            # Covers both a missing/corrupt dictionary and a stamp that
            # does not match the re-derived content digest.
            report.add(
                "SSJ114", SEVERITY_ERROR,
                f"dictionary cannot anchor generation checks: {exc}",
                f"{location}::dict/meta",
                hint="re-ingest the table with `repro ingest`",
            )
            return report
        for info in reader.segments():
            if info.kind != KIND_META or not (
                info.name == "table/meta"
                or info.name.endswith(("enc/meta", "index/meta", "verify/meta",
                                       "pair/meta"))
            ):
                continue
            try:
                meta = codecs._loads(reader.segment(info.name))
            except Exception:  # audit sweep: any decode failure is a finding
                report.add(
                    "SSJ114", SEVERITY_ERROR,
                    f"undecodable artifact metadata segment {info.name!r}",
                    f"{location}::{info.name}",
                )
                continue
            stamped = meta.get("generation") if isinstance(meta, dict) else None
            if stamped != generation:
                report.add(
                    "SSJ114", SEVERITY_ERROR,
                    f"persisted artifact {info.name!r} was built under "
                    f"dictionary generation {str(stamped)[:12]!r} but the "
                    f"file's dictionary is generation {generation[:12]!r}; "
                    "its integer ids would decode through the wrong "
                    "interning table",
                    f"{location}::{info.name}",
                    hint="re-ingest the table with `repro ingest`",
                )
    finally:
        reader.close()
    return report
