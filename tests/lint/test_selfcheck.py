"""Self-check: the shipped tree satisfies its own invariants.

The acceptance bar for the linter is two-sided: ``src/repro`` must lint
clean, and a seeded violation in real model code must be caught with a
named rule, file and line.  Both directions are covered here so a rule
can neither rot into vacuity nor start rejecting the tree it ships with.
"""

from pathlib import Path

import pytest

import repro
from repro.lint import all_rules, run_lint

SRC = Path(repro.__file__).resolve().parent


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        result = run_lint([SRC], all_rules())
        assert result.clean, "\n".join(f.render() for f in result.findings)
        # Sanity: the run actually covered the package.
        assert len(result.files) > 50

    def test_every_registered_rule_ran(self):
        result = run_lint([SRC], all_rules())
        assert result.rules == [
            "ConfigFlagCoverage",
            "ExactArithPurity",
            "LedgerDiscipline",
            "SchemaIdLiteral",
            "SpanLabelStability",
            "TelemetryDiscipline",
            "TraceDiscipline",
            "UnitsHygiene",
        ]


class TestSeededViolations:
    """Mutating real shipped sources must trip the pass."""

    def _copy_with(self, tmp_path, relpath, appended):
        source = (SRC / relpath).read_text()
        target = tmp_path / "repro" / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source + appended)
        return target

    def test_raw_dram_bytes_accumulation_in_primitives(self, tmp_path):
        target = self._copy_with(
            tmp_path,
            "perf/primitives.py",
            "\n\ndef _leak(reports):\n"
            "    dram_bytes = 0\n"
            "    for report in reports:\n"
            "        dram_bytes += report.traffic.total\n"
            "    return dram_bytes\n",
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [f for f in result.findings if f.rule == "LedgerDiscipline"]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("perf/primitives.py")
        assert culprits[0].line == len(target.read_text().splitlines()) - 1

    def test_fstring_span_label_in_bootstrap(self, tmp_path):
        self._copy_with(
            tmp_path,
            "perf/bootstrap.py",
            "\n\ndef _bad(model):\n"
            "    for i in range(3):\n"
            '        with obs.span(f"CoeffToSlot {i}"):\n'
            "            pass\n",
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [
            f for f in result.findings if f.rule == "SpanLabelStability"
        ]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("perf/bootstrap.py")

    def test_float_division_in_ntt(self, tmp_path):
        self._copy_with(
            tmp_path,
            "numth/ntt.py",
            "\n\ndef _approx_scale(n):\n    return 1 / n\n",
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [f for f in result.findings if f.rule == "ExactArithPurity"]
        assert len(culprits) == 1
        assert "division" in culprits[0].message

    def test_dead_madconfig_flag(self, tmp_path):
        # Copy the whole perf/ package, then add an unread flag.
        for path in (SRC / "perf").glob("*.py"):
            (tmp_path / "repro" / "perf").mkdir(parents=True, exist_ok=True)
            (tmp_path / "repro" / "perf" / path.name).write_text(
                path.read_text()
            )
        optimizations = tmp_path / "repro" / "perf" / "optimizations.py"
        patched = optimizations.read_text().replace(
            "key_compression: bool = False",
            "key_compression: bool = False\n    phantom_flag: bool = False",
            1,
        )
        assert "phantom_flag" in patched
        optimizations.write_text(patched)
        result = run_lint([tmp_path], all_rules())
        culprits = [
            f for f in result.findings if f.rule == "ConfigFlagCoverage"
        ]
        assert len(culprits) == 1
        assert "phantom_flag" in culprits[0].message

    def test_schema_version_literal_outside_its_declaration(self, tmp_path):
        target = self._copy_with(
            tmp_path,
            "obs/export.py",
            "\n\ndef build_bumped_report():\n"
            '    return {"schema": "repro.obs.run_report/v2"}\n',
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [f for f in result.findings if f.rule == "SchemaIdLiteral"]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("obs/export.py")
        assert culprits[0].line == len(target.read_text().splitlines())

    def test_rss_sampling_in_sweep_engine(self, tmp_path):
        target = self._copy_with(
            tmp_path,
            "sweep/engine.py",
            "\n\ndef _worker_rss():\n"
            "    import resource\n\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n",
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [
            f for f in result.findings if f.rule == "TelemetryDiscipline"
        ]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("sweep/engine.py")
        assert culprits[0].line == len(target.read_text().splitlines())

    def test_hand_built_trace_event_in_schedules(self, tmp_path):
        target = self._copy_with(
            tmp_path,
            "memsim/schedules.py",
            "\n\ndef _emit_raw(events, block):\n"
            "    from repro.memsim.trace import Access\n\n"
            '    events.append(Access("r", "ct", block))\n',
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [f for f in result.findings if f.rule == "TraceDiscipline"]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("memsim/schedules.py")
        assert culprits[0].line == len(target.read_text().splitlines())

    def test_ops_plus_bytes_in_runtime_model(self, tmp_path):
        target = self._copy_with(
            tmp_path,
            "hardware/runtime.py",
            "\n\ndef _work(cost):\n"
            "    return cost.ops.total + cost.traffic.total\n",
        )
        result = run_lint([tmp_path], all_rules())
        culprits = [f for f in result.findings if f.rule == "UnitsHygiene"]
        assert len(culprits) == 1
        assert culprits[0].path.endswith("hardware/runtime.py")
        assert culprits[0].line == len(target.read_text().splitlines())

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["/nonexistent/definitely-not-here"], all_rules())

