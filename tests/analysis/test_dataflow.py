"""Dataflow auditor: lattice/CFG units, per-rule golden snippets, the
fixture-corpus gate, and the engine-is-clean gate."""

import ast
import time
from pathlib import Path

import pytest

from repro.analysis.dataflow import (
    CLEAN,
    AbstractValue,
    DataflowAnalyzer,
    analyze_dataflow,
    analyze_sources,
    build_cfg,
    check_corpus,
    expected_rules,
    join,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = REPO_ROOT / "tests" / "analysis" / "dataflow_fixtures"

#: Boilerplate making ``{fn}`` a kernel: its name crosses a pool boundary.
DRIVER = "\n\ndef driver(pool, xs):\n    return [pool.submit({fn}, x) for x in xs]\n"


def df(source):
    return analyze_sources([("mod.py", source)])


def rules(report):
    return sorted({d.rule for d in report})


# -- lattice ------------------------------------------------------------------


def test_join_is_pointwise_or_with_first_origin():
    a = AbstractValue(tainted=True, origin="set iteration at line 3")
    b = AbstractValue(nondet=True, origin="time.time() at line 9")
    j = join(a, b)
    assert j.tainted and j.nondet and not j.unordered
    assert j.origin == "set iteration at line 3"
    assert join(CLEAN, CLEAN) == CLEAN


def test_join_drops_mismatched_alias():
    a = AbstractValue(alias_of="rows")
    b = AbstractValue(alias_of="cols")
    assert join(a, b).alias_of is None
    assert join(a, a).alias_of == "rows"


# -- CFG ----------------------------------------------------------------------


def test_cfg_loop_header_has_back_edge():
    fn = ast.parse(
        "def f(xs):\n    for x in xs:\n        y = x\n    return y\n"
    ).body[0]
    cfg = build_cfg(fn)
    header = next(
        b for b in cfg.blocks
        if any(isinstance(s, ast.For) for s in b.statements)
    )
    # Loop header branches to body and after-loop ...
    assert len(header.succs) == 2
    # ... and the body's end loops back to it.
    preds = cfg.preds()[header.bid]
    assert len(preds) >= 2


def test_cfg_loop_body_carries_loop_context():
    fn = ast.parse(
        "def f(xs):\n    for x in xs:\n        y = x\n    return y\n"
    ).body[0]
    cfg = build_cfg(fn)
    in_loop = [b for b in cfg.blocks if b.loop_ids]
    assert in_loop, "loop body blocks must record their enclosing loop"


def test_cfg_code_after_return_is_disconnected():
    fn = ast.parse("def f():\n    return 1\n    x = 2\n").body[0]
    cfg = build_cfg(fn)
    reachable = set(cfg.rpo())
    dead = [
        b.bid
        for b in cfg.blocks
        if any(isinstance(s, ast.Assign) for s in b.statements)
    ]
    assert dead and all(bid not in reachable for bid in dead)


# -- DF301: ordering taint ----------------------------------------------------


def test_df301_kernel_returns_list_of_set():
    src = (
        "def k(rows):\n"
        "    u = set()\n"
        "    for r in rows:\n"
        "        u.add(r)\n"
        "    return list(u)\n" + DRIVER.format(fn="k")
    )
    assert rules(df(src)) == ["DF301"]


def test_df301_sorted_is_a_canonicalization_point():
    src = (
        "def k(rows):\n"
        "    u = set()\n"
        "    for r in rows:\n"
        "        u.add(r)\n"
        "    return sorted(u)\n" + DRIVER.format(fn="k")
    )
    assert df(src).ok


def test_df301_result_constructor_is_an_emission_point_everywhere():
    # No pool in sight: Batch columns must be canonical in any function.
    src = (
        "def build(groups):\n"
        "    keys = {g for g in groups}\n"
        "    return Batch([[k for k in keys]])\n"
    )
    assert rules(df(src)) == ["DF301"]


def test_df301_set_typed_parameter_is_tracked():
    src = (
        "from typing import Set\n\n"
        "def k(items: Set[str]):\n"
        "    return [i for i in items]\n" + DRIVER.format(fn="k")
    )
    assert rules(df(src)) == ["DF301"]


def test_df301_taint_crosses_helper_calls_via_summaries():
    src = (
        "def _helper(rows):\n"
        "    return list(set(rows))\n\n"
        "def k(rows):\n"
        "    return _helper(rows)\n" + DRIVER.format(fn="k")
    )
    report = df(src)
    assert "DF301" in rules(report)
    # The finding anchors in the kernel, where the emission happens.
    assert any("k()" in d.message for d in report)


def test_df301_helper_that_canonicalizes_clears_taint():
    src = (
        "def _canon(rows):\n"
        "    return sorted(set(rows))\n\n"
        "def k(rows):\n"
        "    return _canon(rows)\n" + DRIVER.format(fn="k")
    )
    assert df(src).ok


def test_df301_plain_helper_return_is_not_an_emission():
    # Only kernels and result constructors are emission points; a helper
    # returning hash-order data is fine until something emits it.
    src = "def helper(rows):\n    return list(set(rows))\n"
    assert df(src).ok


# -- DF302/DF303: kernel purity -----------------------------------------------


def test_df302_kernel_mutating_parameter():
    src = (
        "def k(rows):\n"
        "    rows.append(1)\n"
        "    return rows\n" + DRIVER.format(fn="k")
    )
    assert rules(df(src)) == ["DF302"]


def test_df302_defensive_copy_is_fine():
    src = (
        "def k(rows):\n"
        "    rows = list(rows)\n"
        "    rows.append(1)\n"
        "    return rows\n" + DRIVER.format(fn="k")
    )
    assert df(src).ok


def test_df302_non_kernel_may_mutate_its_args():
    src = "def helper(rows):\n    rows.append(1)\n    return rows\n"
    assert df(src).ok


def test_df303_kernel_global_write():
    src = (
        "_CACHE = {}\n\n"
        "def k(key):\n"
        "    global _CACHE\n"
        "    _CACHE[key] = key\n"
        "    return key\n" + DRIVER.format(fn="k")
    )
    assert rules(df(src)) == ["DF303"]


# -- DF304: pickling boundary -------------------------------------------------


def test_df304_lambda_shipped_to_pool():
    src = "def driver(pool, xs):\n    return pool.submit(lambda x: x, xs)\n"
    assert rules(df(src)) == ["DF304"]


def test_df304_nested_def_shipped_to_pool():
    src = (
        "def driver(pool, xs, off):\n"
        "    def shifted(x):\n"
        "        return x + off\n"
        "    return pool.map(shifted, xs)\n"
    )
    assert rules(df(src)) == ["DF304"]


def test_df304_module_level_function_is_picklable():
    src = (
        "def k(x):\n    return x\n\n"
        "def driver(pool, xs):\n    return pool.map(k, xs)\n"
    )
    assert df(src).ok


# -- DF305: nondeterminism ----------------------------------------------------


def test_df305_wall_clock_into_emitted_rows():
    src = (
        "import time\n\n"
        "def k(rows):\n"
        "    out = []\n"
        "    for r in rows:\n"
        "        out.append((r, time.time()))\n"
        "    return out\n" + DRIVER.format(fn="k")
    )
    assert rules(df(src)) == ["DF305"]


def test_df305_telemetry_keyword_is_exempt():
    src = (
        "import time\n\n"
        "def k(rows):\n"
        "    start = time.perf_counter()\n"
        "    return Result(rows, seconds=time.perf_counter() - start)\n"
        + DRIVER.format(fn="k")
    )
    assert df(src).ok


def test_df305_builtin_hash_into_result_constructor():
    src = (
        "def build(schema, values):\n"
        "    rows = [(hash(v), v) for v in values]\n"
        "    return Relation(schema, rows)\n"
    )
    assert rules(df(src)) == ["DF305"]


def test_df305_keyed_cache_access_does_not_leak_the_key():
    # The id()-keyed memo pattern: the key selects the entry, the stored
    # value is deterministic.  This is how the engine's parse caches work.
    src = (
        "def memo(cache, encoded):\n"
        "    key = id(encoded)\n"
        "    hit = cache.get(key)\n"
        "    if hit is None:\n"
        "        hit = len(encoded)\n"
        "        cache[key] = hit\n"
        "    return hit\n"
    )
    assert df(src).ok


# -- DF306: float accumulation order ------------------------------------------


def test_df306_float_accumulator_under_set_iteration():
    src = (
        "def total_weight(ws):\n"
        "    total = 0.0\n"
        "    for w in set(ws):\n"
        "        total += w\n"
        "    return total\n"
    )
    report = df(src)
    assert rules(report) == ["DF306"]
    assert report.ok  # warning severity: flagged, not gating


def test_df306_sum_generator_over_set():
    src = (
        "def norm_of(group):\n"
        "    weights = {m for m in group}\n"
        "    return sum(w for w in weights)\n"
    )
    assert rules(df(src)) == ["DF306"]


def test_df306_sorted_iteration_is_fine():
    src = (
        "def total_weight(ws):\n"
        "    total = 0.0\n"
        "    for w in sorted(set(ws)):\n"
        "        total += w\n"
        "    return total\n"
    )
    assert df(src).ok and not df(src).warnings()


def test_df306_fsum_is_order_insensitive():
    src = (
        "import math\n\n"
        "def total_weight(ws):\n"
        "    weights = set(ws)\n"
        "    return math.fsum(weights)\n"
    )
    assert df(src).ok and not df(src).warnings()


# -- dict-order guarantees ----------------------------------------------------


def test_dict_iteration_is_insertion_ordered_and_clean():
    src = (
        "def group(pairs):\n"
        "    index = {}\n"
        "    for k, v in pairs:\n"
        "        index.setdefault(k, []).append(v)\n"
        "    return [(k, vs) for k, vs in index.items()]\n"
    )
    assert df(src).ok


# -- suppression --------------------------------------------------------------


def test_df_statement_suppression():
    src = (
        "def k(rows):\n"
        "    return list(set(rows))  # repro: ignore[DF301]\n"
        + DRIVER.format(fn="k")
    )
    assert df(src).ok


def test_df_file_level_suppression():
    src = (
        "# repro: ignore-file[DF301]\n"
        "def k(rows):\n"
        "    return list(set(rows))\n" + DRIVER.format(fn="k")
    )
    assert df(src).ok


# -- DF300 --------------------------------------------------------------------


def test_df300_syntax_error():
    assert rules(df("def broken(:\n")) == ["DF300"]


# -- the fixture corpus, file by file -----------------------------------------


@pytest.mark.parametrize(
    "fixture", sorted(CORPUS.glob("*.py")), ids=lambda p: p.stem
)
def test_fixture_detected_exactly_as_seeded(fixture):
    source = fixture.read_text(encoding="utf-8")
    expected = expected_rules(source)
    assert expected is not None, "fixture must declare its seeded defects"
    report = analyze_sources([(str(fixture), source)])
    found = {d.rule for d in report if d.rule.startswith("DF")}
    assert found == expected, report.render()


def test_corpus_gate_is_green():
    report = check_corpus(CORPUS)
    assert report.ok, report.render()


def test_corpus_gate_rejects_missing_corpus(tmp_path):
    report = check_corpus(tmp_path / "nope")
    assert rules(report) == ["DF399"]


def test_corpus_gate_rejects_unlabelled_fixture(tmp_path):
    (tmp_path / "mystery.py").write_text("x = 1\n")
    report = check_corpus(tmp_path)
    assert any("no seeded-defect markers" in d.message for d in report)


# -- the engine itself is clean, and fast to audit ----------------------------


def test_engine_is_dataflow_clean():
    report = analyze_dataflow([str(REPO_ROOT / "src" / "repro")])
    assert not report.errors(), report.render()


def test_plan_node_kernels_are_still_discovered():
    # Discovery keys on "a class that defines batches"; seeing fewer
    # kernels than when they carried a batch_protocol tag (these nine,
    # ten in all) would silently stop DF302-DF304 auditing the plan path.
    path = REPO_ROOT / "src" / "repro" / "relational" / "plan.py"
    analyzer = DataflowAnalyzer()
    analyzer.load(path, path.read_text())
    analyzer.run()
    tagged = {"Distinct", "Extend", "GroupBy", "Limit", "OrderBy", "Project",
              "Rename", "SSJoinNode", "Select"}
    assert {f"{name}.batches" for name in tagged} <= analyzer.kernel_quals
    assert len(analyzer.kernel_quals) >= 10


def test_full_tree_audit_is_fast():
    start = time.perf_counter()
    analyze_dataflow([str(REPO_ROOT / "src" / "repro")])
    assert time.perf_counter() - start < 10.0
