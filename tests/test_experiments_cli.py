"""Tests for the ``python -m repro.experiments`` command-line entry point."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import TARGETS, main


class TestCli:
    def test_table_target_prints_rows(self, capsys):
        assert main(["table1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "GreedyB" in output

    def test_figure_target(self, capsys):
        assert main(["figure1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "VPERTURBATION" in output

    def test_appendix_target(self, capsys):
        assert main(["appendix", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "greedy_ratio" in output

    def test_multiquery_target(self, capsys):
        assert main(["multiquery", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Multi-query serving" in output
        assert "Speedup" in output
        assert "False" not in output  # batched and naive selections agree

    def test_coreset_target(self, capsys):
        assert main(["coreset", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Sharded core-set solving" in output
        assert "Parity" in output

    def test_serve_target(self, capsys):
        # The quick config round-trips the corpus through its snapshot file
        # (save, then load) before serving: the crash-restart handoff.
        assert main(["serve", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Serving load" in output
        assert "Cache hit rate" in output

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_targets_list_is_complete(self):
        assert set(TARGETS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "figure1",
            "appendix",
            "multiquery",
            "coreset",
            "serve",
            "all",
        }
