"""Tests for the multi-process portfolio and the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main, make_parser
from repro.core import HeuristicOptions
from repro.core.synthesizer import SynthesisConfig, default_portfolio
from repro.parallel import synthesize_parallel
from repro.protocols import token_ring


class TestPortfolioConstruction:
    def test_default_portfolio_shape(self):
        configs = default_portfolio(4)
        # 4 rotations x 2 modes
        assert len(configs) == 8
        assert configs[0].schedule == (1, 2, 3, 0)
        assert configs[0].options.cycle_resolution_mode == "batch"
        assert configs[1].options.cycle_resolution_mode == "sequential"

    def test_custom_schedules_and_modes(self):
        configs = default_portfolio(
            3, schedules=[(0, 1, 2)], modes=("hybrid",)
        )
        assert len(configs) == 1
        assert configs[0].describe() == "schedule=(0, 1, 2) mode=hybrid"


class TestParallel:
    def test_parallel_race_finds_solution(self):
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), n_workers=2
        )
        assert winner.success
        assert winner.pss_groups is not None
        # reconstruct and verify in the parent
        protocol, invariant = token_ring(4, 3)
        from repro.verify import check_solution

        rebuilt = protocol.with_groups(winner.pss_groups)
        assert check_solution(protocol, rebuilt, invariant).ok

    def test_parallel_reports_best_failure(self):
        configs = [
            SynthesisConfig(
                (1, 2, 3, 0),
                HeuristicOptions(enable_pass2=False, enable_pass3=False),
            )
        ]
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=configs, n_workers=1
        )
        assert not winner.success
        assert winner.remaining_deadlocks > 0

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            synthesize_parallel(token_ring, (4, 3), configs=[])


class TestCli:
    def test_parser_subcommands(self):
        parser = make_parser()
        args = parser.parse_args(["synthesize", "token-ring", "-k", "4"])
        assert args.protocol == "token-ring"
        assert args.k == 4

    def test_synthesize_token_ring(self, capsys):
        code = main(["synthesize", "token-ring", "-k", "4", "-d", "3", "--print-actions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SUCCESS" in out
        assert "x1 := x0" in out

    def test_verify_nonstabilizing_input(self, capsys):
        code = main(["verify", "token-ring", "-k", "4", "-d", "3"])
        assert code == 1
        assert "NOT stabilizing" in capsys.readouterr().out

    def test_rank_output(self, capsys):
        code = main(["rank", "token-ring", "-k", "4", "-d", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max rank M = 2" in out

    def test_analyze_matching(self, capsys):
        code = main(["analyze", "matching", "-k", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "locally correctable: False" in out

    def test_symbolic_engine_coloring(self, capsys):
        code = main(["synthesize", "coloring", "-k", "4", "--engine", "symbolic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "success: True" in out

    def test_gouda_acharya_verify_fails(self, capsys):
        code = main(["verify", "gouda-acharya", "-k", "5"])
        assert code == 1

    def test_trace_into_missing_directory_is_one_line_exit_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["synthesize", "token-ring", "-k", "3", "--trace", str(target)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            f"stsyn: cannot write trace {target}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synthesize", "coloring", "-k", "2"], "coloring on a ring needs K >= 3"),
            (["synthesize", "coloring", "-k", "0"], "coloring on a ring needs K >= 3"),
            (["synthesize", "matching", "-k", "1", "--engine", "symbolic"],
             "matching on a ring needs K >= 3"),
            (["synthesize", "token-ring", "-k", "1"], "token ring needs K >= 2"),
            (["synthesize", "token-ring", "-k", "3", "-d", "0"],
             "token ring needs |D| >= 2"),
            (["verify", "coloring", "-k", "2"], "coloring on a ring needs K >= 3"),
            (["synthesize", "coloring", "-k", "2", "--workers", "2"],
             "coloring on a ring needs K >= 3"),
            # 3^88 overflows the state-space strides before any BDD exists
            (["synthesize", "coloring", "-k", "129", "--engine", "symbolic"],
             "state space too large even for symbolic strides"),
        ],
    )
    def test_bad_size_is_one_line_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stsyn: {message}")
        assert err.count("\n") == 1

    def test_kernel_variable_bound_is_one_line_exit_2(self, monkeypatch, capsys):
        # coloring K=5 encodes 5 x 2 bits x (cur, next) = 20 BDD variables
        monkeypatch.setattr("repro.bdd.manager.MAX_VARS", 16)
        with pytest.raises(SystemExit) as exit_info:
            main(["synthesize", "coloring", "-k", "5", "--engine", "symbolic"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "stsyn: 20 BDD variables exceed the kernel's limit of 16 "
            "(its operators recurse once per variable)\n"
        )

    def test_closed_pipe_exits_1_without_traceback(self):
        # stdout is a pipe whose reader is already gone: every flush fails
        # with EPIPE, as with ``stsyn ... | head -1``
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "synthesize",
                 "token-ring", "-k", "3", "--print-actions"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1
