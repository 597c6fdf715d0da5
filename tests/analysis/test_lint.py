"""Engine-hygiene lint: per-rule snippets plus the repo-clean gate."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules(report):
    return sorted({d.rule for d in report})


# -- RL201: set iteration -----------------------------------------------------


def test_rl201_for_over_set_literal():
    report = lint_source("for x in {1, 2, 3}:\n    print(x)\n")
    assert rules(report) == ["RL201"]


def test_rl201_comprehension_over_set_call():
    report = lint_source("out = [x for x in set(items)]\n")
    assert rules(report) == ["RL201"]


def test_rl201_sorted_set_is_fine():
    assert lint_source("for x in sorted({1, 2}):\n    pass\n").ok
    assert lint_source("for x in [1, 2]:\n    pass\n").ok


def test_rl201_order_insensitive_sinks_are_fine():
    # Reductions whose result does not depend on arrival order: the set
    # iteration inside them is harmless and must not be flagged.
    assert lint_source("total = sum(v for v in set(vs))\n").ok
    assert lint_source("n = len([x for x in set(xs)])\n").ok
    assert lint_source("uniq = sorted(x for x in set(xs))\n").ok
    assert lint_source("m = max(x for x in {1, 2})\n").ok


def test_rl201_set_comprehension_result_is_fine():
    # A set comprehension's own iteration order is unobservable: the
    # result is again unordered (and checked wherever it is consumed).
    assert lint_source("uniq = {x for x in items}\n").ok


def test_rl201_keyed_min_max_is_still_flagged():
    # key= ties break by arrival order, so min/max stop being
    # order-insensitive the moment a key function appears.
    src = "m = max((x for x in set(xs)), key=f)\n"
    assert rules(lint_source(src)) == ["RL201"]


# -- RL202: unseeded random ---------------------------------------------------


def test_rl202_module_level_random():
    report = lint_source("import random\nx = random.shuffle(items)\n")
    assert rules(report) == ["RL202"]


def test_rl202_seeded_instance_is_fine():
    src = "import random\nrng = random.Random(42)\nrng.shuffle(items)\n"
    assert lint_source(src).ok


# -- RL203: float equality ----------------------------------------------------


def test_rl203_float_literal():
    report = lint_source("if x == 0.8:\n    pass\n")
    assert rules(report) == ["RL203"]


def test_rl203_floaty_identifier():
    report = lint_source("if threshold != computed:\n    pass\n")
    assert rules(report) == ["RL203"]


def test_rl203_string_comparison_is_fine():
    assert lint_source("if kind == 'weight':\n    pass\n").ok
    assert lint_source("if norm_kind == NORM_WEIGHT:\n    pass\n").ok
    assert lint_source("if threshold >= computed:\n    pass\n").ok


# -- RL204: mutable dataclass -------------------------------------------------


def test_rl204_mutable_dataclass():
    src = "from dataclasses import dataclass\n\n@dataclass\nclass Row:\n    a: int = 0\n"
    report = lint_source(src)
    assert rules(report) == ["RL204"]


def test_rl204_frozen_is_fine():
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Row:\n    a: int = 0\n"
    )
    assert lint_source(src).ok


def test_rl204_suppression_comment():
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass  # repro: ignore[RL204] -- accumulator\n"
        "class Acc:\n    n: int = 0\n"
    )
    assert lint_source(src).ok


# -- RL205: missing annotations ----------------------------------------------


def test_rl205_missing_annotations():
    report = lint_source("def f(a, b):\n    return a\n")
    assert rules(report) == ["RL205"]
    (diag,) = report.errors()
    assert "'a'" in diag.message and "return type" in diag.message


def test_rl205_fully_annotated_is_fine():
    assert lint_source("def f(a: int, b: str = 'x') -> int:\n    return a\n").ok


def test_rl205_self_is_exempt():
    src = "class C:\n    def m(self) -> None:\n        pass\n"
    assert lint_source(src).ok


# -- suppression mechanics ----------------------------------------------------


def test_bare_suppression_covers_all_rules():
    assert lint_source("for x in {1, 2}:  # repro: ignore\n    pass\n").ok


def test_listed_suppression_is_rule_specific():
    src = "for x in {1, 2}:  # repro: ignore[RL203]\n    pass\n"
    assert rules(lint_source(src)) == ["RL201"]


def test_suppression_on_decorated_function():
    # The comment may sit on the def line even though the rule anchors
    # at the first decorator (and vice versa).
    src = "@decorator\ndef f(a):  # repro: ignore[RL205]\n    return a\n"
    assert lint_source(src).ok
    src = "@decorator  # repro: ignore[RL205]\ndef f(a):\n    return a\n"
    assert lint_source(src).ok


def test_suppression_on_any_line_of_multiline_statement():
    src = (
        "for x in set(\n"
        "    items\n"
        "):  # repro: ignore[RL201]\n"
        "    pass\n"
    )
    assert lint_source(src).ok


def test_file_level_suppression():
    src = "# repro: ignore-file[RL201]\nfor x in {1}:\n    pass\n"
    assert lint_source(src).ok
    # Bare ignore-file silences every rule.
    src = "# repro: ignore-file\nfor x in {1}:\n    pass\nif x == 0.5:\n    pass\n"
    assert lint_source(src).ok
    # Listed ignore-file stays rule-specific.
    src = "# repro: ignore-file[RL203]\nfor x in {1}:\n    pass\n"
    assert rules(lint_source(src)) == ["RL201"]


def test_syntax_error_reported_as_rl200():
    assert rules(lint_source("def broken(:\n")) == ["RL200"]


# -- diagnostics carry file locations ----------------------------------------


def test_location_is_path_and_line():
    report = lint_source("x = 1\nfor x in {1}:\n    pass\n", path="mod.py")
    assert report.errors()[0].location == "mod.py:2"


# -- the hot paths themselves are clean ---------------------------------------


def test_engine_hot_paths_are_lint_clean():
    report = lint_paths(
        [
            str(REPO_ROOT / "src" / "repro" / "core"),
            str(REPO_ROOT / "src" / "repro" / "relational"),
        ]
    )
    assert report.ok, report.render()


def test_module_entry_point_runs_without_warnings():
    """The CI step: ``python -W error::RuntimeWarning -m repro.analysis.lint``
    exits 0 with nothing on stderr (no "found in sys.modules" warning)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.lint"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stderr == ""
