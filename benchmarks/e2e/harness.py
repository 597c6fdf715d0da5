"""Run protocol, stopwatch spans and statistics of the end-to-end benchmark.

One *run* of one workload, in one fresh process (README.md, "Run protocol"):

1. the deterministic set-up executes at least three times (``setup_s`` is
   the median; the last execution's state feeds the job),
2. one untimed warm-up repetition of the job,
3. timed repetitions of the whole job, ``gc.collect()`` before each, until
   ``seconds`` have been measured (``job_s`` / ``job_cpu_s`` are the fastest
   repetition: on a shared box other tenants only ever add time),
4. every operation's result digest is compared with the expected one.

A *traced* run is separate (:func:`trace_workload`): it alternates untraced
repetitions with step-by-step replays through the layers' public functions
and derives the per-layer ledger from the replays' stopwatch spans.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

DEFAULT_SEED = 20060403

#: scale -> (row divisor, minimum timed repetitions, default seconds to measure)
SCALES = {"full": (1, 3, 14.0), "smoke": (50, 2, 0.0)}

#: Set-up repeats until both are reached (a 30 ms set-up needs more than
#: three executions for a steady median), up to the maximum.
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_RUNS = 15

#: Ledger reconciliation gates of a traced run.
MAX_TRACE_OVERHEAD = 0.10
TRACE_EXTRA_SECONDS = 15.0
MAX_UNATTRIBUTED = {"fig12_cold": 0.15}

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_share": "ratio",
}

Rows = Iterable[Sequence[Any]]


# -- measurement primitives ---------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped
    (what ``os.times()`` adds up, at microsecond instead of tick resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with the quartiles, extremes and count written beside it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def digest(rows: Rows) -> str:
    """Order-insensitive digest of result rows (tuples of one shape); floats
    to six decimals, so implementations that sum weights in another order
    still agree."""
    rows = list(rows)
    lines: List[str] = []
    if rows:
        shape = "\t".join("%.6f" if isinstance(v, float) else "%s" for v in rows[0])
        lines = sorted([shape % row for row in rows])
    lines.append(str(len(rows)))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def environment(seed: int, scale: str) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
        "git_commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout the harness sits in, read without running git
    (the driver's checkout is not a repository: then ``None``)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


# -- stopwatch spans -----------------------------------------------------------------


class Stopwatched:
    """A per-item function (a tokenizer) with its calls, items and seconds
    accumulated, so 75 000 calls become one child span instead of 75 000."""

    def __init__(self, fn: Callable[[Any], Sequence[Any]]) -> None:
        self.fn = fn
        self.seconds = 0.0
        self.items = 0

    def __call__(self, arg: Any) -> Sequence[Any]:
        start = time.perf_counter()
        out = self.fn(arg)
        self.seconds += time.perf_counter() - start
        self.items += len(out)
        return out

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


class Tracer:
    """In-memory spans ``{id, name, start, end, parent, workload, rep}`` and
    counters, both filed under the current *rep* (``"setup"``, a replay's
    number, ``"probe"``).

    A disabled tracer costs one generator frame per span, so set-up code is
    written once and timed untraced through the same calls.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[Any, Dict[str, float]] = {}
        self.rep: Any = "setup"
        self._open: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = self._record(name, time.perf_counter(), 0.0)
        span["cursor"] = span["start"]
        self._open.append(span)
        try:
            yield
        finally:
            self._open.pop()
            del span["cursor"]
            span["end"] = time.perf_counter()

    def child(self, name: str, seconds: float) -> None:
        """A stretch the program timed itself (an ``ExecutionMetrics`` phase,
        a :class:`Stopwatched` total), laid after the open span's previous
        children: the phases of one call are contiguous and in order."""
        if not self.enabled or seconds <= 0.0:
            return
        parent = self._open[-1]
        self._record(name, parent["cursor"], seconds)
        parent["cursor"] += seconds

    def phases(self, metrics: Any, names: Dict[str, str]) -> None:
        """Children for the ``ExecutionMetrics`` phases run since the last
        call, then forget them (one metrics object serves a whole replay)."""
        for phase, seconds in metrics.phase_seconds.items():
            self.child(names[phase], seconds)
        metrics.phase_seconds.clear()

    def stopwatch(self, fn: Callable[[Any], Sequence[Any]]) -> Any:
        return Stopwatched(fn) if self.enabled else fn

    def took(self, name: str, stopwatched: Any, count: str) -> None:
        """Child span for what a :meth:`stopwatch` function accumulated, and
        the items it returned added to counter *count*."""
        if self.enabled:
            self.child(name, stopwatched.take())
            self.count(count, stopwatched.items)
            stopwatched.items = 0

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            counters = self.counters.setdefault(self.rep, {})
            counters[name] = counters.get(name, 0) + value

    def _record(self, name: str, start: float, seconds: float) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": start + seconds,
            "parent": self._open[-1]["id"] if self._open else None,
            "workload": self.workload,
            "rep": self.rep,
        }
        self.spans.append(span)
        return span

    def self_seconds(self, rep: Any) -> Dict[str, float]:
        """Per span name, duration minus the part child spans cover."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["rep"] == rep:
                own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


# -- the untraced run ------------------------------------------------------------------


def run_setup(workload: Any, seed: int, scale: str, tracer: Tracer) -> Any:
    divisor = SCALES[scale][0]
    return workload.setup(seed, divisor, tracer)


def repetition_plan(scale: str, seconds: Optional[float]) -> Any:
    """(minimum repetitions, seconds to measure) of one run."""
    _, min_reps, default_seconds = SCALES[scale]
    return min_reps, default_seconds if seconds is None else seconds


def timed_setups(workload: Any, seed: int, scale: str) -> Any:
    """Execute the set-up repeatedly; return (last state, seconds of each)."""
    tracer = Tracer(workload.name, enabled=False)
    seconds: List[float] = []
    while True:
        state = None  # drop the previous one, so two never add to the peak
        gc.collect()
        start = time.perf_counter()
        state = run_setup(workload, seed, scale, tracer)
        seconds.append(time.perf_counter() - start)
        enough = len(seconds) >= SETUP_MIN_RUNS and sum(seconds) >= SETUP_MIN_SECONDS
        if enough or len(seconds) >= SETUP_MAX_RUNS:
            return state, seconds


def digests_of(results: Dict[str, Rows]) -> Dict[str, str]:
    return {op: digest(rows) for op, rows in results.items()}


def timed_job(workload: Any, state: Any) -> Any:
    """One repetition: (wall seconds, cpu seconds, {operation: result rows})."""
    gc.collect()
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        results = workload.job(state)
    except Exception:
        # The run goes on: this repetition's operations count as failed.
        traceback.print_exc()
        results = {}
    wall = time.perf_counter() - start
    return wall, cpu_seconds() - cpu, results


def expected_digests(
    workload: Any, state: Any, last: Dict[str, Rows], pinned: Optional[Dict[str, str]]
) -> Dict[str, str]:
    """What every operation must digest to: the pin of this seed, or an
    independent computation when the seed is not pinned. *last* holds the
    rows of the final repetition."""
    if pinned is not None:
        return pinned
    if workload.spot_checked:
        # The full independent path (tuple probe plan) takes minutes at
        # these sizes; an unpinned seed gets a brute-force check of the
        # final repetition, whose digests every other one must then equal.
        if set(last) != set(workload.ops):
            return {}  # it raised
        errors = workload.spot_check(state, last)
        for line in errors[:10]:
            print(f"  spot check: {line}", file=sys.stderr)
        return {} if errors else digests_of(last)
    return workload.independent(state)


def check(
    ops: Sequence[str], digests: List[Dict[str, str]], expected: Dict[str, str]
) -> Any:
    """(operations attempted, one line per failed one): an operation fails
    when it produced no digest or another than the expected one."""
    mismatches = [
        f"{op} rep {rep}: {got.get(op)} != {expected.get(op)}"
        for rep, got in enumerate(digests)
        for op in ops
        if got.get(op) is None or got[op] != expected.get(op)
    ]
    return len(digests) * len(ops), mismatches


def run_workload(
    workload: Any,
    seed: int = DEFAULT_SEED,
    scale: str = "full",
    seconds: Optional[float] = None,
    pinned: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """The untraced run protocol; returns the result record."""
    min_reps, budget = repetition_plan(scale, seconds)
    state, setup_seconds = timed_setups(workload, seed, scale)
    try:
        digests = [digests_of(timed_job(workload, state)[2])]
        walls: List[float] = []
        cpus: List[float] = []
        last: Dict[str, Rows] = {}
        while len(walls) < min_reps or sum(walls) < budget:
            last = {}  # freed before the next repetition, so it never adds to its peak
            wall, cpu, last = timed_job(workload, state)
            walls.append(wall)
            cpus.append(cpu)
            digests.append(digests_of(last))
        rss = peak_rss_mb()
        expected = expected_digests(workload, state, last, pinned)
    finally:
        workload.teardown(state)
    attempted, mismatches = check(workload.ops, digests, expected)
    stats = {
        "job_s": summarize(walls),
        "job_cpu_s": summarize(cpus),
        "setup_s": summarize(setup_seconds),
    }
    values = {
        "job_s": min(walls),
        "job_cpu_s": min(cpus),
        "setup_s": stats["setup_s"]["median"],
        "peak_rss_mb": rss,
        "failed_share": len(mismatches) / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "workload": workload.name,
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(mismatches),
        "metrics": metrics,
        "stats": stats,
        "repetitions": len(walls),
        "repetition_seconds": {"job_s": walls, "job_cpu_s": cpus, "setup_s": setup_seconds},
        "pinned": pinned is not None,
        "digests": digests[0],
        "mismatches": mismatches[:20],
        "environment": environment(seed, scale),
    }


# -- the traced run ---------------------------------------------------------------------


def trace_workload(
    workload: Any,
    layer_units: Dict[str, str],
    seed: int = DEFAULT_SEED,
    scale: str = "full",
    seconds: Optional[float] = None,
    pinned: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Replay the job through the layers; returns the ledger and the spans."""
    min_reps, budget = repetition_plan(scale, seconds)
    tracer = Tracer(workload.name)
    state = run_setup(workload, seed, scale, tracer)
    try:
        timed_job(workload, state)
        untraced: List[float] = []
        traced: List[float] = []
        replays: List[Dict[str, str]] = []
        began = time.perf_counter()

        def more() -> bool:
            if len(traced) < min_reps or time.perf_counter() - began < budget:
                return True
            # A burst from another tenant of the box during the fastest
            # untraced repetition's rivals reads as overhead: before failing
            # the gate, give both minima a few more chances to come down.
            overhead = min(traced) / min(untraced) - 1.0
            return (
                scale == "full"
                and overhead > MAX_TRACE_OVERHEAD
                and time.perf_counter() - began < budget + TRACE_EXTRA_SECONDS
            )

        while more():
            untraced.append(timed_job(workload, state)[0])
            gc.collect()
            tracer.rep = len(traced)
            start = time.perf_counter()
            with tracer.span("job"):
                results = workload.replay(state, tracer)
            traced.append(time.perf_counter() - start)
            replays.append(digests_of(results))
        tracer.rep = "probe"
        workload.probe(state, tracer)
        expected = expected_digests(workload, state, results, pinned)
    finally:
        workload.teardown(state)

    # The ledger is the fastest replay: one consistent set of spans, the
    # one other tenants of the box disturbed least.
    job_wall = min(traced)
    layer_seconds: Dict[str, float] = {}
    values: Dict[str, float] = {}
    for rep in ("setup", "probe", traced.index(job_wall)):
        layer_seconds.update(tracer.self_seconds(rep))
        values.update(tracer.counters.get(rep, {}))
    values.update((f"{name}_s", secs) for name, secs in layer_seconds.items() if name != "job")
    values["trace.overhead_share"] = job_wall / min(untraced) - 1.0
    values["trace.unattributed_share"] = layer_seconds["job"] / job_wall
    unknown = sorted(set(values) - set(layer_units))
    if unknown:
        raise KeyError(f"replay produced metrics BENCHMARK.json does not list: {unknown}")

    attempted, mismatches = check(workload.ops, replays, expected)
    gates: List[str] = []
    if scale == "full":
        limits = {
            "trace.overhead_share": MAX_TRACE_OVERHEAD,
            "trace.unattributed_share": MAX_UNATTRIBUTED.get(workload.name, 1.0),
        }
        gates = [
            f"{name} {values[name]:.3f} > {limit}"
            for name, limit in limits.items() if values[name] > limit
        ]
    return {
        "workload": workload.name,
        "correct": not mismatches and not gates,
        "attempted": attempted,
        "failed": len(mismatches),
        "mismatches": mismatches[:20],
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in layer_units.items()
        },
        "gates": gates,
        "repetitions": len(traced),
        "traced_job_s": summarize(traced),
        "untraced_job_s": summarize(untraced),
        "environment": environment(seed, scale),
        "spans": tracer.spans,
    }
