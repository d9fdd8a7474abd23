"""Smoke tests: the example scripts must run end to end.

Each example is imported as a module and its ``main``-equivalent executed;
failures here mean the public API drifted away from the documentation.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str) -> None:
    # Execute under the __main__ guard, exactly like `python examples/x.py`.
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _run_example("quickstart")
        out = capsys.readouterr().out
        assert "bootstrap" in out and "arithmetic intensity" in out

    def test_bootstrap_analysis(self, capsys):
        _run_example("bootstrap_analysis")
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 3" in out

    def test_noise_budget(self, capsys):
        _run_example("noise_budget")
        out = capsys.readouterr().out
        assert "predicted precision" in out

    def test_private_image_filter(self, capsys):
        _run_example("private_image_filter")
        out = capsys.readouterr().out
        assert "max error" in out

    def test_parameter_search(self, capsys):
        _run_example("parameter_search")
        out = capsys.readouterr().out
        assert "admissible parameter sets" in out
        assert out.count("  #1 ") == 3  # one winner per memory budget

    def test_encrypted_logistic_regression(self, capsys):
        _run_example("encrypted_logistic_regression")
        out = capsys.readouterr().out
        assert "agreement" in out

    @pytest.mark.slow
    def test_accelerator_comparison(self, capsys):
        _run_example("accelerator_comparison")
        out = capsys.readouterr().out
        assert "Bootstrapping comparison" in out
