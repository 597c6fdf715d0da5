"""Static analysis layer: plan verifier, invariant linter, engine lint.

Three layers, one diagnostic vocabulary (:class:`Diagnostic` /
:class:`AnalysisReport`):

- :mod:`repro.analysis.plan_verifier` / :mod:`repro.analysis.sql_check`
  — schema propagation over relational plans and SQL (``PV1xx`` rules).
- :mod:`repro.analysis.invariants` — SSJoin safety: Lemma-1 bound
  soundness, ordering-contract checks for encoded plans, float-equality
  and verify-step audits (``SSJ1xx`` rules).
- :mod:`repro.analysis.lint` — ``ast``-based engine-hygiene lint over
  the hot paths (``RL2xx`` rules); also ``python -m repro.analysis.lint``.
- :mod:`repro.analysis.dataflow` — fixpoint dataflow auditor for
  ordering determinism, kernel purity, and float-accumulation order in
  the parallel/batch engine (``DF3xx`` rules).

Entry points: ``repro analyze`` (CLI; ``--dataflow`` for the DF3xx
audit), ``SSJoin(..., verify=True)`` (facade), and :func:`selfcheck`
(the CI regression gate).
"""

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    AnalysisReport,
    Diagnostic,
)
from repro.analysis.invariants import (
    KNOWN_IMPLEMENTATIONS,
    check_shards,
    check_ssjoin,
    verify_shards,
    verify_ssjoin,
)
from repro.analysis.dataflow import DF_RULES, analyze_dataflow, check_corpus
from repro.analysis.plan_verifier import check_plan, verify_plan
from repro.analysis.selfcheck import selfcheck
from repro.analysis.sql_check import check_sql, verify_select, verify_sql
from repro.errors import AnalysisError

_LINT_NAMES = ("lint_file", "lint_paths", "lint_source")


def __getattr__(name: str) -> object:
    # The lint names load on first use, so `python -m repro.analysis.lint`
    # does not find its own module already imported by this package.
    if name in _LINT_NAMES:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "AnalysisReport",
    "Diagnostic",
    "AnalysisError",
    "KNOWN_IMPLEMENTATIONS",
    "verify_ssjoin",
    "check_ssjoin",
    "verify_shards",
    "check_shards",
    "verify_plan",
    "check_plan",
    "verify_select",
    "verify_sql",
    "check_sql",
    "lint_source",
    "lint_file",
    "lint_paths",
    "DF_RULES",
    "analyze_dataflow",
    "check_corpus",
    "selfcheck",
]
