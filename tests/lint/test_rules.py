"""Positive/negative fixture snippets for every domain rule."""

from pathlib import Path

import pytest

import repro
from repro.lint.scopes import FLOAT_KERNEL_FILE

SRC = Path(repro.__file__).resolve().parent


def rules_of(result):
    return [(f.rule, f.line) for f in result.findings]


# ----------------------------------------------------------------------
# LedgerDiscipline
# ----------------------------------------------------------------------
class TestLedgerDiscipline:
    def test_raw_byte_accumulation_in_perf_flagged(self, lint_tree):
        result = lint_tree(
            {
                "perf/primitives.py": """
                def cost(limbs):
                    dram_bytes = 0
                    dram_bytes += 8 * limbs
                    return dram_bytes
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert rules_of(result) == [("LedgerDiscipline", 4)]
        assert "dram_bytes" in result.findings[0].message

    def test_cost_field_mutation_flagged_outside_perf_too(self, lint_tree):
        result = lint_tree(
            {
                "ckks/evaluator.py": """
                def relinearize(report, extra):
                    report.ops = extra
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert rules_of(result) == [("LedgerDiscipline", 3)]

    def test_augmented_attribute_mutation_flagged(self, lint_tree):
        result = lint_tree(
            {
                "apps/workload.py": """
                def fold(report, cost):
                    report.traffic += cost.traffic
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert rules_of(result) == [("LedgerDiscipline", 3)]

    @pytest.mark.parametrize(
        "core_file",
        [
            "perf/events.py",
            "perf/ledger.py",
            "perf/cache.py",
            "memsim/accounting.py",
        ],
    )
    def test_ledger_core_files_are_exempt(self, lint_tree, core_file):
        result = lint_tree(
            {
                core_file: """
                def accumulate(self, other):
                    self.ops = self.ops + other.ops
                    total_bytes = 0
                    total_bytes += other.traffic.total
                    return total_bytes
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert result.clean

    def test_fresh_costreport_style_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "perf/primitives.py": """
                def add(self, limbs):
                    ops = self.op_count(adds=2 * limbs)
                    traffic = self._traffic(ct_read=4 * limbs)
                    return self.report(ops, traffic)
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert result.clean

    def test_plain_counter_accumulation_outside_perf_is_clean(self, lint_tree):
        # Raw-name accumulation only matters inside perf/ and sweep/ code.
        result = lint_tree(
            {
                "report/tables.py": """
                def total(rows):
                    total_ops = 0
                    for row in rows:
                        total_ops += row.ops
                    return total_ops
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert result.clean

    def test_raw_byte_accumulation_in_sweep_flagged(self, lint_tree):
        # PR 5 extends the perf/ clause to sweep/: evaluators aggregate
        # cost reports across grid points, exactly where a shadow
        # accumulator would hide.
        result = lint_tree(
            {
                "sweep/evaluators.py": """
                def total(rows):
                    traffic_bytes = 0
                    for row in rows:
                        traffic_bytes += row["traffic_total"]
                    return traffic_bytes
                """
            },
            rules=["LedgerDiscipline"],
        )
        assert rules_of(result) == [("LedgerDiscipline", 5)]
        assert "sweep/" in result.findings[0].message


# ----------------------------------------------------------------------
# SpanLabelStability
# ----------------------------------------------------------------------
class TestSpanLabelStability:
    @pytest.mark.parametrize(
        "label",
        [
            'f"CoeffToSlot {i}"',
            '"CoeffToSlot %d" % i',
            '"CoeffToSlot {}".format(i)',
            '"CoeffToSlot " + str(i)',
        ],
    )
    def test_dynamic_labels_flagged(self, lint_tree, label):
        result = lint_tree(
            {
                "perf/bootstrap.py": f"""
                def run(obs, i):
                    with obs.span({label}):
                        pass
                """
            },
            rules=["SpanLabelStability"],
        )
        assert [f.rule for f in result.findings] == ["SpanLabelStability"]
        assert result.findings[0].line == 3

    def test_static_label_with_attrs_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "perf/bootstrap.py": """
                def run(obs, i, level):
                    with obs.span("CoeffToSlot:iter", iter=i, level=level):
                        pass
                """
            },
            rules=["SpanLabelStability"],
        )
        assert result.clean

    def test_plain_name_label_is_clean(self, lint_tree):
        # Labels bound from a static table are a legitimate pattern.
        result = lint_tree(
            {
                "apps/workload.py": """
                def run(obs, op_units):
                    for op_name, cost in op_units:
                        with obs.span(op_name, cost=cost):
                            pass
                """
            },
            rules=["SpanLabelStability"],
        )
        assert result.clean

    def test_module_level_span_helper_also_checked(self, lint_tree):
        result = lint_tree(
            {
                "ckks/bootstrap.py": """
                def run(span, k):
                    with span(f"EvalMod {k}"):
                        pass
                """
            },
            rules=["SpanLabelStability"],
        )
        assert len(result.findings) == 1


# ----------------------------------------------------------------------
# ExactArithPurity
# ----------------------------------------------------------------------
class TestExactArithPurity:
    def test_true_division_flagged_in_numth(self, lint_tree):
        result = lint_tree(
            {
                "numth/modular.py": """
                def half(a, q):
                    return (a / 2) % q
                """
            },
            rules=["ExactArithPurity"],
        )
        assert rules_of(result) == [("ExactArithPurity", 3)]

    def test_float_literal_and_builtin_flagged_in_ring(self, lint_tree):
        result = lint_tree(
            {
                "ring/conversion.py": """
                def approx(x):
                    scale = 0.5
                    return float(x) * scale
                """
            },
            rules=["ExactArithPurity"],
        )
        assert sorted(f.line for f in result.findings) == [3, 4]

    def test_inexact_math_and_numpy_flagged(self, lint_tree):
        result = lint_tree(
            {
                "numth/ntt.py": """
                import math
                import numpy as np

                def bits(n):
                    return math.log2(n)
                """
            },
            rules=["ExactArithPurity"],
        )
        assert sorted(f.line for f in result.findings) == [3, 6]

    def test_exact_math_subset_and_floordiv_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "numth/primes.py": """
                import math

                def reduce(d, x, y, n):
                    d //= 2
                    return math.gcd(abs(x - y), n), math.isqrt(n)
                """
            },
            rules=["ExactArithPurity"],
        )
        assert result.clean

    def test_kernels_allow_numpy_but_stay_float_free(self, lint_tree):
        result = lint_tree(
            {
                "kernels/ntt.py": """
                import numpy as np

                def untwist(x, n):
                    return x * (1.0 / n)
                """
            },
            rules=["ExactArithPurity"],
        )
        # The numpy import is sanctioned in kernels/; the float literal
        # and the true division are not.
        assert all(f.line == 5 for f in result.findings)
        assert len(result.findings) == 2

    def test_float_kernel_file_may_use_floats(self, lint_tree):
        result = lint_tree(
            {
                "kernels/fourstep.py": """
                import numpy as np

                def reduce(v, q):
                    qinv = 1.0 / q
                    return v - np.rint(v * qinv) * float(q)
                """
            },
            rules=["ExactArithPurity"],
        )
        assert result.clean

    @pytest.mark.parametrize(
        "path", ["kernels/conversion.py", "kernels/ntt.py", "kernels/reduce.py"]
    )
    def test_other_kernel_files_stay_float_free(self, lint_tree, path):
        result = lint_tree(
            {
                path: """
                def scale(v, q):
                    return v * 0.5 + v / q + float(q)
                """
            },
            rules=["ExactArithPurity"],
        )
        assert len(result.findings) == 3
        assert all(f.line == 3 for f in result.findings)

    def test_float_kernel_scope_names_one_file(self):
        assert isinstance(FLOAT_KERNEL_FILE, str)
        assert FLOAT_KERNEL_FILE == "kernels/fourstep.py"
        assert (SRC / FLOAT_KERNEL_FILE).is_file()

    def test_ring_allows_numpy_but_stays_float_free(self, lint_tree):
        result = lint_tree(
            {
                "ring/polynomial.py": """
                import numpy as np

                def halve(limbs):
                    return limbs * 0.5
                """,
                "numth/crt.py": """
                import numpy as np
                """,
            },
            rules=["ExactArithPurity"],
        )
        # ring/ may import numpy, but its float literal is still flagged;
        # numth/ (the pure-Python oracle) may not import numpy at all.
        assert sorted(
            (f.path.split("/")[-2], f.line) for f in result.findings
        ) == [("numth", 2), ("ring", 5)]

    def test_floats_allowed_outside_exact_paths(self, lint_tree):
        result = lint_tree(
            {
                "hardware/roofline.py": """
                import math

                def seconds(ops, rate):
                    return ops / rate + math.log2(rate) * 0.0
                """
            },
            rules=["ExactArithPurity"],
        )
        assert result.clean


# ----------------------------------------------------------------------
# UnitsHygiene
# ----------------------------------------------------------------------
class TestUnitsHygiene:
    def test_cross_assignment_flagged(self, lint_tree):
        result = lint_tree(
            {
                "perf/matvec.py": """
                def leak(cost):
                    total_ops = cost.traffic.total
                    return total_ops
                """
            },
            rules=["UnitsHygiene"],
        )
        assert rules_of(result) == [("UnitsHygiene", 3)]

    def test_additive_mixing_flagged(self, lint_tree):
        result = lint_tree(
            {
                "hardware/runtime.py": """
                def combined(cost):
                    return cost.ops.total + cost.traffic.total
                """
            },
            rules=["UnitsHygiene"],
        )
        assert rules_of(result) == [("UnitsHygiene", 3)]

    def test_accessor_name_contract_flagged(self, lint_tree):
        result = lint_tree(
            {
                "perf/events.py": """
                class MemTraffic:
                    def total_bytes(self):
                        return self.mults + self.adds
                """
            },
            rules=["UnitsHygiene"],
        )
        assert [f.rule for f in result.findings] == ["UnitsHygiene"]

    def test_matching_units_and_derived_units_are_clean(self, lint_tree):
        result = lint_tree(
            {
                "perf/events.py": """
                def summarise(self, other, limb_bytes, limbs):
                    total_bytes = self.traffic.total + other.traffic.total
                    total_ops = self.ops.total - other.ops.total
                    intensity = total_ops / total_bytes
                    scaled_bytes = limb_bytes * limbs
                    return total_bytes, total_ops, intensity, scaled_bytes
                """
            },
            rules=["UnitsHygiene"],
        )
        assert result.clean

    def test_unknown_units_never_flagged(self, lint_tree):
        result = lint_tree(
            {
                "search/space.py": """
                def mix(a, b):
                    return a + b
                """
            },
            rules=["UnitsHygiene"],
        )
        assert result.clean


# ----------------------------------------------------------------------
# ConfigFlagCoverage
# ----------------------------------------------------------------------
_CONFIG = """
from dataclasses import dataclass


@dataclass(frozen=True)
class MADConfig:
    cache_o1: bool = False
    mod_down_merge: bool = False
"""


class TestConfigFlagCoverage:
    def test_dead_flag_reported_at_definition(self, lint_tree):
        result = lint_tree(
            {
                "perf/optimizations.py": _CONFIG,
                "perf/primitives.py": """
                def cost(config):
                    if config.cache_o1:
                        return 1
                    return 2
                """,
            },
            rules=["ConfigFlagCoverage"],
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "ConfigFlagCoverage"
        assert finding.path.endswith("perf/optimizations.py")
        assert "mod_down_merge" in finding.message

    def test_all_flags_read_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "perf/optimizations.py": _CONFIG,
                "perf/primitives.py": """
                def cost(config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            rules=["ConfigFlagCoverage"],
        )
        assert result.clean

    def test_reads_in_defining_module_do_not_count(self, lint_tree):
        # __post_init__ validation reads are not model coverage.
        result = lint_tree(
            {
                "perf/optimizations.py": _CONFIG
                + """

    def __post_init__(self):
        assert not (self.mod_down_merge and not self.cache_o1)
                """,
            },
            rules=["ConfigFlagCoverage"],
        )
        assert {f.message.split("`")[1] for f in result.findings} == {
            "cache_o1",
            "mod_down_merge",
        }

    def test_reads_outside_perf_do_not_count(self, lint_tree):
        result = lint_tree(
            {
                "perf/optimizations.py": _CONFIG,
                "report/tables.py": """
                def cost(config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            rules=["ConfigFlagCoverage"],
        )
        assert len(result.findings) == 2

    def test_reads_in_sweep_count_as_coverage(self, lint_tree):
        # PR 5 extends the read scope to sweep/: ablation evaluators
        # dispatch on the same flags the cost formulas consume.
        result = lint_tree(
            {
                "perf/optimizations.py": _CONFIG,
                "sweep/evaluators.py": """
                def evaluate(point, config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            rules=["ConfigFlagCoverage"],
        )
        assert result.clean

    def test_no_madconfig_definition_is_clean(self, lint_tree):
        result = lint_tree(
            {
                "perf/primitives.py": """
                def cost(config):
                    return config.cache_o1
                """
            },
            rules=["ConfigFlagCoverage"],
        )
        assert result.clean


# ----------------------------------------------------------------------
# TraceDiscipline
# ----------------------------------------------------------------------
class TestTraceDiscipline:
    def test_direct_event_construction_flagged(self, lint_tree):
        result = lint_tree(
            {
                "memsim/schedules.py": """
                from repro.memsim.trace import Access

                def emit(events, block):
                    events.append(Access("r", "ct", block))
                """
            },
            rules=["TraceDiscipline"],
        )
        assert rules_of(result) == [("TraceDiscipline", 5)]
        assert "TraceRecorder" in result.findings[0].message

    @pytest.mark.parametrize(
        "event", ["BulkAccess", "PinEvent", "FlushEvent"]
    )
    def test_every_event_type_is_guarded(self, lint_tree, event):
        result = lint_tree(
            {
                "memsim/simulator.py": f"""
                from repro.memsim import trace

                def emit(events):
                    events.append(trace.{event}())
                """
            },
            rules=["TraceDiscipline"],
        )
        assert rules_of(result) == [("TraceDiscipline", 5)]

    def test_trace_module_may_construct_events(self, lint_tree):
        result = lint_tree(
            {
                "memsim/trace.py": """
                def read(self, block):
                    self._events.append(Access("r", "ct", block))
                """
            },
            rules=["TraceDiscipline"],
        )
        assert result.clean

    def test_isinstance_checks_are_not_construction(self, lint_tree):
        result = lint_tree(
            {
                "memsim/simulator.py": """
                from repro.memsim.trace import Access

                def replay(events):
                    return [e for e in events if isinstance(e, Access)]
                """
            },
            rules=["TraceDiscipline"],
        )
        assert result.clean

    def test_byte_accumulation_outside_accounting_flagged(self, lint_tree):
        result = lint_tree(
            {
                "memsim/simulator.py": """
                def replay(self, trace):
                    self.ct_read_bytes += trace.block_bytes
                """
            },
            rules=["TraceDiscipline"],
        )
        assert rules_of(result) == [("TraceDiscipline", 3)]
        assert "DramCounters" in result.findings[0].message

    def test_local_shadow_total_flagged(self, lint_tree):
        result = lint_tree(
            {
                "memsim/validate.py": """
                def total(trace):
                    simulated_bytes = 0
                    for event in trace:
                        simulated_bytes += 8
                    return simulated_bytes
                """
            },
            rules=["TraceDiscipline"],
        )
        assert rules_of(result) == [("TraceDiscipline", 5)]

    def test_accounting_module_may_accumulate(self, lint_tree):
        result = lint_tree(
            {
                "memsim/accounting.py": """
                def add_read(self, nbytes):
                    self.ct_read_bytes += nbytes
                """
            },
            rules=["TraceDiscipline"],
        )
        assert result.clean

    def test_accumulation_outside_memsim_not_this_rules_business(
        self, lint_tree
    ):
        result = lint_tree(
            {
                "apps/workload.py": """
                def total():
                    dram_bytes = 0
                    dram_bytes += 8
                    return dram_bytes
                """
            },
            rules=["TraceDiscipline"],
        )
        assert result.clean  # LedgerDiscipline territory, not TraceDiscipline

    def test_suppression_comment_respected(self, lint_tree):
        result = lint_tree(
            {
                "memsim/debug.py": """
                def probe(events, block):
                    from repro.memsim.trace import Access

                    events.append(Access("r", "ct", block))  # lint: disable=TraceDiscipline
                """
            },
            rules=["TraceDiscipline"],
        )
        assert result.clean
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# TelemetryDiscipline
# ----------------------------------------------------------------------
class TestTelemetryDiscipline:
    def test_getrusage_outside_profiler_flagged(self, lint_tree):
        result = lint_tree(
            {
                "sweep/engine.py": """
                import resource

                def worker_rss():
                    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                """
            },
            rules=["TelemetryDiscipline"],
        )
        assert rules_of(result) == [("TelemetryDiscipline", 5)]
        assert "obs/profiler.py" in result.findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "tracemalloc.start()",
            "tracemalloc.get_traced_memory()",
            "tracemalloc.reset_peak()",
            "psutil.Process()",
            "gc.get_stats()",
            "time.process_time()",
        ],
    )
    def test_every_sampling_api_is_guarded(self, lint_tree, call):
        module = call.split(".")[0]
        result = lint_tree(
            {
                "obs/export.py": f"""
                import {module}

                def sample():
                    return {call}
                """
            },
            rules=["TelemetryDiscipline"],
        )
        assert rules_of(result) == [("TelemetryDiscipline", 5)]

    def test_profiler_module_may_sample(self, lint_tree):
        result = lint_tree(
            {
                "obs/profiler.py": """
                import gc
                import resource
                import time
                import tracemalloc

                def sample():
                    tracemalloc.reset_peak()
                    return (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        time.process_time(),
                        gc.get_stats(),
                    )
                """
            },
            rules=["TelemetryDiscipline"],
        )
        assert result.clean

    def test_other_gc_and_time_calls_are_fine(self, lint_tree):
        result = lint_tree(
            {
                "sweep/engine.py": """
                import gc
                import time

                def run():
                    gc.collect()
                    return time.perf_counter()
                """
            },
            rules=["TelemetryDiscipline"],
        )
        assert result.clean


# ----------------------------------------------------------------------
# SchemaIdLiteral
# ----------------------------------------------------------------------
class TestSchemaIdLiteral:
    def test_literal_outside_a_declaration_flagged(self, lint_tree):
        result = lint_tree(
            {
                "sweep/engine.py": """
                import json

                def emit(handle, data):
                    line = {"schema": "repro.obs.events/v1", "data": data}
                    handle.write(json.dumps(line))
                """
            },
            rules=["SchemaIdLiteral"],
        )
        assert rules_of(result) == [("SchemaIdLiteral", 5)]
        assert "FAMILY.id" in result.findings[0].message

    def test_literal_inside_a_declaration_is_fine(self, lint_tree):
        result = lint_tree(
            {
                "obs/events.py": """
                from repro.obs import schema
                from repro.obs.schema import Schema

                EVENTS = Schema("repro.obs.events/v1", {"type": "array"})
                NESTED = schema.Schema(
                    "repro.obs.other/v2",
                    {"properties": {"tag": {"const": "repro.obs.tag/v1"}}},
                )
                """
            },
            rules=["SchemaIdLiteral"],
        )
        assert result.clean

    def test_module_constant_holding_an_id_flagged(self, lint_tree):
        result = lint_tree(
            {
                "obs/export.py": """
                SCHEMA_ID = "repro.obs.run_report/v1.1"
                ACCEPTED = ("repro.obs.run_report/v1", SCHEMA_ID)
                """
            },
            rules=["SchemaIdLiteral"],
        )
        assert rules_of(result) == [
            ("SchemaIdLiteral", 2),
            ("SchemaIdLiteral", 3),
        ]

    def test_prose_mentions_are_not_schema_ids(self, lint_tree):
        result = lint_tree(
            {
                "cli.py": """
                HELP = "stream a repro.obs.events/v1 JSONL event log here"
                """
            },
            rules=["SchemaIdLiteral"],
        )
        assert result.clean
