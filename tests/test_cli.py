"""End-to-end tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(
        "microsoft corporation\nmicrosoft corp\nmcrosoft corp\n"
        "oracle corp\noracle corporation\n\n"  # blank line must be ignored
    )
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_similarity_rejected(self, corpus):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dedupe", "--input", str(corpus), "--similarity", "levenshtein"]
            )

    def test_removed_implementation_rejected(self, corpus):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dedupe", "--input", str(corpus), "--implementation", "encoded-probe"]
            )


class TestDedupe:
    def test_edit_dedupe_to_file(self, corpus, tmp_path):
        out = tmp_path / "pairs.tsv"
        code = main([
            "dedupe", "--input", str(corpus), "--similarity", "edit",
            "--threshold", "0.8", "--out", str(out),
        ])
        assert code == 0
        lines = [l.split("\t") for l in out.read_text().splitlines()]
        assert ["mcrosoft corp", "microsoft corp"] in [l[:2] for l in lines]
        assert all(len(l) == 3 for l in lines)
        assert all(0 <= float(l[2]) <= 1 for l in lines)

    def test_dedupe_stdout(self, corpus, capsys):
        main(["dedupe", "--input", str(corpus), "--similarity", "jaccard",
              "--threshold", "0.3", "--weights", "unit"])
        captured = capsys.readouterr()
        assert "microsoft corp" in captured.out

    def test_metrics_to_stderr(self, corpus, capsys):
        main(["dedupe", "--input", str(corpus), "--similarity", "edit",
              "--threshold", "0.85", "--metrics"])
        captured = capsys.readouterr()
        assert "candidates=" in captured.err

    def test_two_file_join(self, corpus, tmp_path):
        right = tmp_path / "right.txt"
        right.write_text("microsooft corporation\nzzz qqq\n")
        out = tmp_path / "pairs.tsv"
        main(["dedupe", "--input", str(corpus), "--right", str(right),
              "--similarity", "edit", "--threshold", "0.85", "--out", str(out)])
        assert "microsooft corporation" in out.read_text()

    @pytest.mark.parametrize("similarity", ["jaccard", "containment", "ges", "cosine"])
    def test_every_similarity_runs(self, corpus, tmp_path, similarity):
        out = tmp_path / "pairs.tsv"
        code = main(["dedupe", "--input", str(corpus), "--similarity", similarity,
                     "--threshold", "0.6", "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("impl", ["basic", "prefix", "inline", "probe"])
    def test_every_implementation_runs(self, corpus, tmp_path, impl):
        out = tmp_path / "pairs.tsv"
        code = main(["dedupe", "--input", str(corpus), "--similarity", "jaccard",
                     "--threshold", "0.5", "--implementation", impl,
                     "--out", str(out)])
        assert code == 0


class TestMatch:
    def test_topk_lookup(self, corpus, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("microsooft corp\n")
        code = main(["match", "--queries", str(queries),
                     "--references", str(corpus), "--k", "2",
                     "--threshold", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "microsooft corp\t" in out
        assert len(out.splitlines()) <= 2


class TestExplainAndGenerate:
    def test_explain_prints_plan(self, corpus, capsys):
        code = main(["explain", "--input", str(corpus), "--threshold", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SSJoin[" in out
        assert "cost model" in out

    def test_explain_golden_tree(self, corpus, capsys):
        """Golden output: the full operator tree with cost annotations."""
        main(["explain", "--input", str(corpus), "--threshold", "0.8"])
        out = capsys.readouterr().out
        operator_lines = [
            l for l in out.splitlines() if l.strip() and "--" not in l
        ]
        assert operator_lines == [
            "Project(a_r, a_s, similarity)",
            "  Select(((similarity + 1e-09) >= 0.8))",
            "    Extend(similarity := JR(overlap, norm_r, norm_s))",
            "      Select((a_r <> a_s))",
            "        SSJoin[auto](Overlap >= 0.8*R.norm AND Overlap >= 0.8*S.norm)",
            "          Prepared(input, groups=5, elements=10)",
            "          Prepared(input, groups=5, elements=10)",
        ]
        notes = [l.strip() for l in out.splitlines() if l.strip().startswith("--")]
        physical = [n for n in notes if n.startswith("-- physical: ")]
        assert physical and physical[0].endswith("(chosen by cost model)")
        costed = set()
        for n in notes:
            m = re.match(r"-- [* ]?\s*cost\[([a-z-]+)\] = \d+$", n)
            if m:
                costed.add(m.group(1))
        assert costed == {"basic", "prefix", "inline", "encoded-prefix"}
        # Every node annotates its execution protocol (Layer 8).
        batch_notes = [n for n in notes if n.startswith("-- batch: ")]
        assert len(batch_notes) == 7
        assert any("vectorized" in n for n in batch_notes)
        assert any("columnar source" in n for n in batch_notes)
        assert all(re.search(r"morsel=\d+$", n) for n in batch_notes)

    def test_explain_fig12_golden_snapshot(self, tmp_path, capsys):
        """The Fig-12 workload's plan, pinned (costs masked to N).

        Regenerate with:
        ``repro generate --rows 200 --seed 20060403 --out fig12.txt &&
        repro explain --input fig12.txt --threshold 0.8 |
        sed -E 's/= [0-9]+$/= N/' > tests/golden/explain_fig12.txt``
        """
        data = tmp_path / "fig12.txt"
        main(["generate", "--rows", "200", "--seed", "20060403",
              "--out", str(data)])
        capsys.readouterr()
        main(["explain", "--input", str(data), "--threshold", "0.8"])
        out = capsys.readouterr().out
        masked = re.sub(r"= \d+$", "= N", out, flags=re.MULTILINE)
        golden = Path(__file__).parent / "golden" / "explain_fig12.txt"
        assert masked == golden.read_text()

    def test_generate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "gen.txt"
        code = main(["generate", "--rows", "40", "--seed", "3", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        # Generated file is valid dedupe input.
        code = main(["dedupe", "--input", str(path), "--similarity", "edit",
                     "--threshold", "0.85", "--out", str(tmp_path / "p.tsv")])
        assert code == 0

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "--rows", "25", "--seed", "9", "--out", str(a)])
        main(["generate", "--rows", "25", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestSqlCommand:
    @pytest.fixture
    def tsv(self, tmp_path):
        path = tmp_path / "emp.tsv"
        path.write_text(
            "dept\tname\tsalary\n"
            "eng\tann\t120\n"
            "eng\tbob\t100\n"
            "ops\tcid\t\n"  # empty cell -> NULL
        )
        return path

    def test_select_where(self, tsv, capsys):
        code = main(["sql", "--table", f"emp={tsv}",
                     "--query", "SELECT name FROM emp WHERE salary >= 100 ORDER BY name"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["name", "ann", "bob"]

    def test_aggregate(self, tsv, capsys):
        main(["sql", "--table", f"emp={tsv}",
              "--query", "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["dept\tn", "eng\t2", "ops\t1"]

    def test_null_cell_roundtrip(self, tsv, capsys):
        main(["sql", "--table", f"emp={tsv}",
              "--query", "SELECT name FROM emp WHERE salary IS NULL"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["name", "cid"]

    def test_join_two_tables(self, tsv, tmp_path, capsys):
        sites = tmp_path / "sites.tsv"
        sites.write_text("d\tcity\neng\tsea\n")
        main(["sql", "--table", f"emp={tsv}", "--table", f"sites={sites}",
              "--query",
              "SELECT e.name, s.city FROM emp e JOIN sites s ON e.dept = s.d "
              "ORDER BY name"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["name\tcity", "ann\tsea", "bob\tsea"]

    def test_output_file(self, tsv, tmp_path):
        dest = tmp_path / "result.tsv"
        main(["sql", "--table", f"emp={tsv}",
              "--query", "SELECT COUNT(*) AS n FROM emp", "--out", str(dest)])
        assert dest.read_text() == "n\n3\n"

    def test_bad_table_spec(self, tsv):
        with pytest.raises(SystemExit):
            main(["sql", "--table", "nonsense", "--query", "SELECT 1 FROM t"])

    def test_empty_tsv_rejected(self, tmp_path):
        empty = tmp_path / "e.tsv"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["sql", "--table", f"t={empty}", "--query", "SELECT * FROM t"])


class TestBench:
    def test_fig12_sweep_from_input(self, corpus, capsys):
        assert main(["bench", "--plan", "fig12", "--input", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert out.count("threshold=") == 4
        assert "digest=" in out and "total_prep=" in out

    def test_row_vs_batch_plans_are_gone(self, corpus):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "--plan", "pipeline", "--input", str(corpus)]
            )
