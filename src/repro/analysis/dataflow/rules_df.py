"""The DF3xx rule series: dataflow determinism & kernel purity.

Three passes over the facts the abstract interpreter collects
(:mod:`repro.analysis.dataflow.interp`), reported through the shared
``Diagnostic``/``AnalysisReport`` vocabulary:

**Ordering taint (DF301)** — a value whose content order derives from
unordered iteration (set/dict-of-set iteration, ``os.listdir``,
hash-order) must pass a canonicalization point (``sorted``, the engine's
``_canonical_relation``) before it is emitted: returned/yielded from a
parallel kernel, or placed into a result constructor (``Batch``,
``BatchStream``, ``ColumnarRelation``, ``Relation``) anywhere.

**Kernel purity (DF302-DF304)** — a *kernel* (a function shipped to a
``ProcessPoolExecutor``, a pool ``initializer=``, or a
``batches``/``bind_select`` method of a class that defines ``batches`` —
a plan node's one evaluation method) must not mutate its
parameters in place (DF302), must not write module globals or nonlocals
(DF303), and must be picklable — no lambdas or nested closures shipped
across the process boundary (DF304).

**Nondeterminism & float order (DF305-DF306)** — wall-clock/random/
``id()``/``hash()`` values must not reach emitted data (DF305; telemetry
keyword arguments like ``seconds=`` are exempt), and float accumulation
in an order the engine does not control is flagged (DF306) unless the
reduction is order-insensitive (``math.fsum``) or canonicalized first.

Rule table:

====== ======== =========================================================
DF300  error    file does not parse (nothing else can be checked)
DF301  error    order-tainted value emitted without canonicalization
DF302  error    kernel mutates a caller-owned parameter in place
DF303  error    kernel writes module-global / nonlocal state
DF304  error    unpicklable callable (lambda / closure) shipped to a pool
DF305  error    nondeterministic value flows into emitted data
DF306  warning  order-sensitive float accumulation under unordered order
DF399  error    selfcheck: seeded defect missed / rule fired vacuously
====== ======== =========================================================

All DF3xx findings honor ``# repro: ignore[DF30x]`` statement comments
and ``# repro: ignore-file[...]`` (see :mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.dataflow.interp import Event, FunctionFacts, analyze_function
from repro.analysis.dataflow.summaries import (
    FunctionInfo,
    SummaryTable,
    build_summaries,
    collect_functions,
)
from repro.analysis.suppress import SuppressionIndex

__all__ = ["DF_RULES", "DataflowAnalyzer", "analyze_dataflow", "analyze_sources"]

#: rule id -> (severity, one-line contract) — the public catalog.
DF_RULES: Dict[str, Tuple[str, str]] = {
    "DF300": ("error", "file does not parse; dataflow audit skipped"),
    "DF301": ("error", "order-tainted value emitted without canonicalization"),
    "DF302": ("error", "kernel mutates a caller-owned parameter in place"),
    "DF303": ("error", "kernel writes module-global or nonlocal state"),
    "DF304": ("error", "unpicklable callable shipped across the process boundary"),
    "DF305": ("error", "nondeterministic value flows into emitted data"),
    "DF306": ("warning", "order-sensitive float accumulation under unordered iteration"),
    "DF399": ("error", "selfcheck corpus defect missed or rule fired vacuously"),
}

#: Executor/pool methods whose callable argument crosses a process
#: boundary (first positional argument is the shipped function).
_POOL_METHODS = frozenset({"submit", "map", "apply_async", "imap", "imap_unordered"})
#: Methods that ARE the kernel surface of a plan-node class.
_KERNEL_METHODS = frozenset({"bind_select", "batches"})


@dataclass
class _Module:  # repro: ignore[RL204] -- loader output, filled incrementally
    path: str
    tree: ast.Module
    suppress: SuppressionIndex
    functions: List[FunctionInfo] = field(default_factory=list)


def _pool_callable_args(call: ast.Call) -> List[ast.expr]:
    """Expressions shipped across a process boundary by *call*, if any."""
    shipped: List[ast.expr] = []
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
        if call.args:
            shipped.append(call.args[0])
    for kw in call.keywords:
        if kw.arg == "initializer":
            shipped.append(kw.value)
    return shipped


def _batch_class(node: ast.ClassDef) -> bool:
    """A plan-node class: one that defines the ``batches`` method."""
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "batches"
        for item in node.body
    )


class DataflowAnalyzer:
    """One audit run over a set of parsed modules (see module docstring).

    Usage: construct, :meth:`load` each file (or use the
    :func:`analyze_dataflow` / :func:`analyze_sources` wrappers), then
    :meth:`run` to get the populated :class:`AnalysisReport`.
    """

    def __init__(self, report: Optional[AnalysisReport] = None) -> None:
        self.report = report if report is not None else AnalysisReport()
        self.modules: List[_Module] = []
        #: basenames of functions shipped to pools anywhere in the run.
        self.kernel_names: Set[str] = set()
        #: qualnames ("Class.method") of plan-node kernel methods.
        self.kernel_quals: Set[str] = set()
        self.function_count = 0

    # -- loading -----------------------------------------------------------

    def load(self, path: Union[str, Path], source: str) -> None:
        path = str(path)
        lines = source.splitlines()
        suppress = SuppressionIndex(lines)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.report.add(
                "DF300",
                DF_RULES["DF300"][0],
                f"syntax error: {exc.msg}",
                location=f"{path}:{exc.lineno or 1}",
                hint="fix the parse error; no dataflow facts were computed",
            )
            return
        self.modules.append(_Module(path=path, tree=tree, suppress=suppress))

    # -- kernel discovery --------------------------------------------------

    def _discover_kernels(self) -> None:
        for mod in self.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call):
                    for shipped in _pool_callable_args(node):
                        if isinstance(shipped, ast.Name):
                            self.kernel_names.add(shipped.id)
                        elif isinstance(shipped, ast.Attribute):
                            self.kernel_names.add(shipped.attr)
                elif isinstance(node, ast.ClassDef) and _batch_class(node):
                    for item in node.body:
                        if (
                            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name in _KERNEL_METHODS
                        ):
                            self.kernel_quals.add(f"{node.name}.{item.name}")

    def _is_kernel(self, info: FunctionInfo) -> bool:
        return info.name in self.kernel_names or info.qualname in self.kernel_quals

    # -- emission ----------------------------------------------------------

    def _emit(
        self,
        mod: _Module,
        rule: str,
        span: Tuple[int, int],
        message: str,
        hint: str,
    ) -> None:
        if mod.suppress.suppressed(span, rule):
            return
        self.report.add(
            rule,
            DF_RULES[rule][0],
            message,
            location=f"{mod.path}:{span[0]}",
            hint=hint,
        )

    # -- per-function rule application ------------------------------------

    def _apply_events(
        self, mod: _Module, info: FunctionInfo, facts: FunctionFacts,
        is_kernel: bool,
    ) -> None:
        where = f"{info.qualname}()"
        for ev in facts.events:
            if ev.kind in ("emit-return", "emit-yield", "emit-constructor"):
                self._apply_emit(mod, where, ev, is_kernel)
            elif ev.kind == "param-mutation" and is_kernel:
                if ev.name in ("self", "cls"):
                    continue
                self._emit(
                    mod, "DF302", ev.span,
                    f"kernel {where} mutates parameter {ev.name!r} in "
                    f"place ({ev.detail})",
                    "kernels must treat arguments as caller-owned; make a "
                    "defensive copy (e.g. rows = list(rows)) before mutating",
                )
            elif ev.kind in ("global-write", "nonlocal-write") and is_kernel:
                what = "nonlocal" if ev.kind == "nonlocal-write" else "module global"
                self._emit(
                    mod, "DF303", ev.span,
                    f"kernel {where} writes {what} {ev.name!r}"
                    + (f" ({ev.detail})" if ev.detail else ""),
                    "worker-side state diverges per process and never returns "
                    "to the parent; thread state through arguments/returns",
                )
            elif ev.kind == "float-accum":
                self._emit(
                    mod, "DF306", ev.span,
                    f"{where}: {ev.detail}",
                    "float addition is not associative: canonicalize the "
                    "iteration (sorted(...)) or use an exact reduction "
                    "(math.fsum) so the sum is order-independent",
                )

    def _apply_emit(
        self, mod: _Module, where: str, ev: Event, is_kernel: bool
    ) -> None:
        # Result constructors are emission points everywhere; plain
        # return/yield is an emission point only across the kernel
        # boundary (helpers get their taint carried by summaries).
        is_constructor = ev.kind == "emit-constructor"
        if not (is_constructor or is_kernel):
            return
        sink = (
            f"{ev.name}(...)" if is_constructor
            else ("yield" if ev.kind == "emit-yield" else "return")
        )
        origin = ev.value.origin
        if ev.value.tainted or ev.value.unordered:
            self._emit(
                mod, "DF301", ev.span,
                f"{where}: order-tainted value reaches {sink}"
                + (f" — {origin}" if origin else ""),
                "order derived from unordered iteration must pass a "
                "canonicalization point (sorted(...), _canonical_relation) "
                "before being emitted",
            )
        if ev.value.nondet:
            self._emit(
                mod, "DF305", ev.span,
                f"{where}: nondeterministic value reaches {sink}"
                + (f" — {origin}" if origin else ""),
                "wall clocks / random / id() must not decide emitted data; "
                "telemetry belongs in dedicated *seconds*/*metrics* fields",
            )

    def _apply_pool_shipping(self, mod: _Module) -> None:
        """DF304: lambdas and nested defs do not pickle across a
        ``ProcessPoolExecutor`` boundary."""
        for outer in ast.walk(mod.tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = {
                n.name
                for n in ast.walk(outer)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n is not outer
            }
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call):
                    continue
                for shipped in _pool_callable_args(node):
                    span = (
                        getattr(shipped, "lineno", node.lineno),
                        getattr(shipped, "end_lineno", node.lineno),
                    )
                    if isinstance(shipped, ast.Lambda):
                        self._emit(
                            mod, "DF304", span,
                            f"{outer.name}(): lambda shipped to a process "
                            "pool is unpicklable",
                            "hoist the callable to module level; closures and "
                            "lambdas cannot cross the pickle boundary",
                        )
                    elif isinstance(shipped, ast.Name) and shipped.id in nested:
                        self._emit(
                            mod, "DF304", span,
                            f"{outer.name}(): nested function "
                            f"{shipped.id!r} shipped to a process pool "
                            "captures its enclosing scope and is unpicklable",
                            "hoist the worker function to module level and "
                            "pass captured state explicitly as arguments",
                        )

    # -- driver ------------------------------------------------------------

    def run(self) -> AnalysisReport:
        self._discover_kernels()
        table, _ = build_summaries(
            (mod.path, mod.tree) for mod in self.modules
        )
        for mod in self.modules:
            mod.functions = collect_functions(mod.tree, mod.path)
            self._apply_pool_shipping(mod)
            for info in mod.functions:
                is_kernel = self._is_kernel(info)
                facts = analyze_function(
                    info.node, info.path, info.qualname, table.resolve
                )
                self.function_count += 1
                self._apply_events(mod, info, facts, is_kernel)
                # Nested defs inherit the kernel context they run in.
                for inner in ast.walk(info.node):
                    if (
                        isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and inner is not info.node
                    ):
                        inner_info = FunctionInfo(
                            inner.name,
                            f"{info.qualname}.{inner.name}",
                            mod.path,
                            inner,
                        )
                        inner_facts = analyze_function(
                            inner, mod.path, inner_info.qualname, table.resolve
                        )
                        self.function_count += 1
                        self._apply_events(
                            mod, inner_info, inner_facts,
                            is_kernel or inner.name in self.kernel_names,
                        )
        return self.report


def _iter_py_files(paths: Sequence[Union[str, Path]]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def analyze_dataflow(
    paths: Sequence[Union[str, Path]],
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Audit every ``.py`` under *paths* (files or directories)."""
    analyzer = DataflowAnalyzer(report)
    for file in _iter_py_files(paths):
        analyzer.load(file, file.read_text(encoding="utf-8"))
    return analyzer.run()


def analyze_sources(
    items: Sequence[Tuple[str, str]],
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Audit in-memory *(path, source)* pairs — the test entry point."""
    analyzer = DataflowAnalyzer(report)
    for path, source in items:
        analyzer.load(path, source)
    return analyzer.run()
