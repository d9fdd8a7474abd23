"""`python -m repro memsim` command wiring."""

import json

import pytest

from repro.cli import main
from repro.memsim.validate import MEMSIM_REPORT
from repro.obs import schema


class TestMemsimCommand:
    def test_single_point_run_passes(self, capsys):
        code = main(
            ["memsim", "--cache-mb", "192", "--config", "caching",
             "--primitive", "mult", "--primitive", "rotate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mult" in out and "rotate" in out
        assert "overall: PASS" in out

    def test_json_output_validates_against_schema(self, capsys):
        code = main(
            ["memsim", "--json", "--cache-mb", "192", "--config", "caching",
             "--primitive", "key_switch"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        schema.validate(report, MEMSIM_REPORT)
        assert report["passed"]

    def test_fit_break_exits_nonzero(self, capsys):
        # 8 MB cannot hold the alpha-limb working set: single-point runs
        # report the break and fail loudly (no expected-break whitelist
        # outside the ladder).
        code = main(
            ["memsim", "--cache-mb", "8", "--config", "caching",
             "--primitive", "mod_up"]
        )
        assert code == 1
        assert "FIT BREAK" in capsys.readouterr().out

    def test_unknown_primitive_rejected(self):
        with pytest.raises(SystemExit, match="unknown primitive"):
            main(["memsim", "--primitive", "bogus"])

    def test_out_writes_report_file(self, tmp_path, capsys):
        path = tmp_path / "memsim_report.json"
        code = main(
            ["memsim", "--cache-mb", "192", "--config", "caching",
             "--primitive", "decomp", "--out", str(path)]
        )
        assert code == 0
        assert schema.load(path, MEMSIM_REPORT)["passed"]

    def test_policy_flag_accepts_lru(self, capsys):
        code = main(
            ["memsim", "--policy", "lru", "--cache-mb", "2",
             "--config", "none", "--primitive", "decomp"]
        )
        assert code == 0
