"""E4 — Figure 12: Jaccard resemblance join, IDF-weighted word tokens.

Paper shapes: prefix-filtered 5–10× faster than basic; inline ≈30% faster
than plain prefix; in the basic plan virtually all time is the SSJoin
phase; prefix-filtered time grows as the threshold drops. The
dictionary-encoded prefix plan rides the same sweep and must beat the
tuple prefix plan it replaces.
"""

import pytest

from benchmarks.conftest import THRESHOLDS, write_artifact
from repro.bench.harness import SweepRunner
from repro.bench.figures import figure_from_records
from repro.bench.reporting import render_json, render_phase_table, render_series, speedup_table
from repro.joins.jaccard_join import jaccard_resemblance_join

_RECORDS = []

_IMPLEMENTATIONS = ["basic", "prefix", "inline", "encoded-prefix"]


@pytest.mark.parametrize("implementation", _IMPLEMENTATIONS)
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_jaccard_sweep(benchmark, jaccard_addresses, implementation, threshold):
    runner = SweepRunner(
        "fig12-jaccard",
        lambda t, i: jaccard_resemblance_join(
            jaccard_addresses, threshold=t, weights="idf", implementation=i
        ),
    )
    benchmark.pedantic(
        lambda: runner.run([threshold], implementations=[implementation]),
        rounds=1,
        iterations=1,
    )
    _RECORDS.extend(runner.records[-1:])


def test_zz_render_figure12(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _RECORDS
    panels = [
        render_phase_table(
            [r for r in _RECORDS if r.implementation == impl],
            title=f"Figure 12 — Jaccard resemblance join [{impl}]",
        )
        for impl in _IMPLEMENTATIONS
    ]
    text = "\n\n".join(panels)
    text += "\n\n" + "\n\n".join(
        figure_from_records(
            [r for r in _RECORDS if r.implementation == impl],
            title=f"ASCII stacked bars [{impl}]",
        )
        for impl in ("basic", "prefix", "inline")
    )

    series = render_series(_RECORDS)
    basic = dict(series["basic"])
    prefix = dict(series["prefix"])
    inline = dict(series["inline"])
    encoded = dict(series["encoded-prefix"])
    speedups = [
        f"threshold {t:.2f}: basic/prefix={basic[t] / prefix[t]:.1f}x, "
        f"prefix/inline={prefix[t] / inline[t]:.1f}x, "
        f"prefix/encoded-prefix={prefix[t] / encoded[t]:.1f}x"
        for t in THRESHOLDS
    ]
    text += "\n\nSpeedups:\n" + "\n".join(speedups)
    write_artifact(results_dir, "fig12_jaccard.txt", text)

    # Machine-readable twin of the rendered panels (repro-bench/v1).
    (results_dir / "fig12_jaccard.json").write_text(
        render_json(
            _RECORDS,
            label="fig12-jaccard",
            speedups={
                "prefix/encoded-prefix": speedup_table(
                    _RECORDS, "prefix", "encoded-prefix"
                )
            },
        )
        + "\n"
    )

    # Prefix family must beat basic across the sweep (paper: 5-10x). The
    # inline-vs-prefix margin (paper: ~30%) only emerges at row counts
    # where the regroup joins dominate encoding overhead, so at benchmark
    # scale it is asserted loosely and reported exactly.
    for t in THRESHOLDS:
        assert prefix[t] < basic[t], f"prefix must beat basic at {t}"
        assert inline[t] < basic[t], f"inline must beat basic at {t}"
        assert inline[t] <= prefix[t] * 2.0, f"inline must stay competitive at {t}"
        assert encoded[t] < prefix[t], f"encoded-prefix must beat prefix at {t}"
