"""Positive and negative fixture snippets for every invariant rule.

Each case parses small sources keyed by their path under a package root
and runs one rule of ``tests/test_invariants.py`` over them.
"""

import ast
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_invariants import FLOAT_KERNEL_FILE, RULES, SRC, findings


def check(files, rule):
    """``rule``'s findings over dedented fixture sources keyed by path."""
    trees = {path: ast.parse(textwrap.dedent(code)) for path, code in files.items()}
    return findings(rule, trees)


def rules_of(found):
    return [(f.rule, f.line) for f in found]


def assert_finds(rule, files, expected):
    """``rule`` finds exactly ``expected`` in the fixture ``files``.

    ``expected`` lists ``(line, col, message fragment)`` per finding, in
    the sorted order :func:`findings` returns.
    """
    found = check(files, rule)
    assert [(f.line, f.col) for f in found] == [
        (line, col) for line, col, _ in expected
    ]
    for finding, (_, _, says) in zip(found, expected):
        assert says in finding.message


# ----------------------------------------------------------------------
# LedgerDiscipline
# ----------------------------------------------------------------------
#: ``(path, code, expected)`` cases of one file each; see :func:`assert_finds`.
LEDGER_CASES = [
    pytest.param(
        "perf/keyswitch.py", "report.ops, extra = pair\n",
        [(1, 1, "`.ops`")], id="tuple-target",
    ),
    pytest.param(
        "apps/workload.py", "[head, report.traffic] = pair\n",
        [(1, 1, "`.traffic`")], id="list-target",
    ),
    pytest.param(
        "ckks/evaluator.py", "first, (report.mults, rest) = pairs\n",
        [(1, 1, "`.mults`")], id="nested-target",
    ),
    pytest.param(
        "ckks/evaluator.py", "total = report.adds = 0\n",
        [(1, 1, "`.adds`")], id="chained-assignment",
    ),
    pytest.param(
        "report/tables.py", "row.total_ops = 0\n",
        [(1, 1, "`.total_ops`")], id="ops-suffixed-attribute",
    ),
    pytest.param(
        "memsim/simulator.py", "self.ct_read = 0\n",
        [(1, 1, "`.ct_read`")], id="stream-field-attribute",
    ),
    pytest.param(
        "perf/matvec.py", "total_ops += rotations\n",
        [(1, 1, "raw accumulation into `total_ops` in perf/")],
        id="ops-local-in-perf",
    ),
    pytest.param(
        "sweep/grid.py", "traffic += row.traffic\n",
        [(1, 1, "raw accumulation into `traffic` in sweep/")],
        id="cost-field-local-in-sweep",
    ),
    pytest.param(
        "perf/ledger_view.py", "self.ops = ops\n",
        [(1, 1, "`.ops`")], id="core-lookalike-is-checked",
    ),
    pytest.param(
        "perf/primitives.py", "dram_bytes = 8 * limbs\n",
        [], id="plain-local-assignment-in-perf-is-clean",
    ),
    pytest.param(
        "apps/workload.py", "total = report.ops.total + report.traffic.total\n",
        [], id="cost-field-reads-are-clean",
    ),
]


class TestLedgerDiscipline:
    @pytest.mark.parametrize("path, code, expected", LEDGER_CASES)
    def test_case(self, path, code, expected):
        assert_finds("LedgerDiscipline", {path: code}, expected)

    def test_raw_byte_accumulation_in_perf_flagged(self):
        found = check(
            {
                "perf/primitives.py": """
                def cost(limbs):
                    dram_bytes = 0
                    dram_bytes += 8 * limbs
                    return dram_bytes
                """
            },
            "LedgerDiscipline",
        )
        assert rules_of(found) == [("LedgerDiscipline", 4)]
        assert "dram_bytes" in found[0].message

    def test_cost_field_mutation_flagged_outside_perf_too(self):
        found = check(
            {
                "ckks/evaluator.py": """
                def relinearize(report, extra):
                    report.ops = extra
                """
            },
            "LedgerDiscipline",
        )
        assert rules_of(found) == [("LedgerDiscipline", 3)]

    def test_augmented_attribute_mutation_flagged(self):
        found = check(
            {
                "apps/workload.py": """
                def fold(report, cost):
                    report.traffic += cost.traffic
                """
            },
            "LedgerDiscipline",
        )
        assert rules_of(found) == [("LedgerDiscipline", 3)]

    @pytest.mark.parametrize(
        "core_file",
        [
            "perf/events.py",
            "perf/ledger.py",
            "perf/cache.py",
            "memsim/accounting.py",
        ],
    )
    def test_ledger_core_files_are_exempt(self, core_file):
        found = check(
            {
                core_file: """
                def accumulate(self, other):
                    self.ops = self.ops + other.ops
                    total_bytes = 0
                    total_bytes += other.traffic.total
                    return total_bytes
                """
            },
            "LedgerDiscipline",
        )
        assert found == []

    def test_fresh_costreport_style_is_clean(self):
        found = check(
            {
                "perf/primitives.py": """
                def add(self, limbs):
                    ops = self.op_count(adds=2 * limbs)
                    traffic = self._traffic(ct_read=4 * limbs)
                    return self.report(ops, traffic)
                """
            },
            "LedgerDiscipline",
        )
        assert found == []

    def test_plain_counter_accumulation_outside_perf_is_clean(self):
        # Raw-name accumulation only matters inside perf/ and sweep/ code.
        found = check(
            {
                "report/tables.py": """
                def total(rows):
                    total_ops = 0
                    for row in rows:
                        total_ops += row.ops
                    return total_ops
                """
            },
            "LedgerDiscipline",
        )
        assert found == []

    def test_raw_byte_accumulation_in_sweep_flagged(self):
        # The perf/ clause covers sweep/ too: evaluators aggregate
        # cost reports across grid points, exactly where a shadow
        # accumulator would hide.
        found = check(
            {
                "sweep/evaluators.py": """
                def total(rows):
                    traffic_bytes = 0
                    for row in rows:
                        traffic_bytes += row["traffic_total"]
                    return traffic_bytes
                """
            },
            "LedgerDiscipline",
        )
        assert rules_of(found) == [("LedgerDiscipline", 5)]
        assert "sweep/" in found[0].message


# ----------------------------------------------------------------------
# SpanLabelStability
# ----------------------------------------------------------------------
SPAN_CASES = [
    pytest.param(
        "perf/bootstrap.py", "obs.span(*labels)\n",
        [(1, 10, "starred argument")], id="starred",
    ),
    pytest.param(
        "perf/bootstrap.py", 'obs.span(f"Phase %d" % i)\n',
        [(1, 10, "%-formatting")], id="percent-on-fstring",
    ),
    pytest.param(
        "perf/bootstrap.py", 'obs.span(name + " iter")\n',
        [(1, 10, "string concatenation")], id="constant-on-the-right",
    ),
    pytest.param(
        "perf/bootstrap.py", "obs.span(template.format(i))\n",
        [(1, 10, ".format() call")], id="format-on-a-name",
    ),
    pytest.param(
        "ckks/bootstrap.py", 'tracer.span(f"EvalMod {k}", level=k)\n',
        [(1, 13, "f-string interpolation")], id="any-receiver",
    ),
    pytest.param(
        "perf/bootstrap.py", "obs.span(prefix + name)\n",
        [], id="concatenated-names-are-clean",
    ),
    pytest.param(
        "perf/bootstrap.py", "obs.span(fmt % i)\n",
        [], id="percent-on-a-name-is-clean",
    ),
    pytest.param(
        "perf/bootstrap.py", 'obs.span(f"Phase")\n',
        [], id="fstring-without-fields-is-clean",
    ),
    pytest.param(
        "perf/bootstrap.py", 'obs.span("Phase", note=f"{i}")\n',
        [], id="only-the-first-positional-is-a-label",
    ),
    pytest.param(
        "perf/bootstrap.py", "obs.span()\n",
        [], id="no-arguments-is-clean",
    ),
    pytest.param(
        "perf/bootstrap.py", 'log.info(f"Phase {i}")\n',
        [], id="other-callees-are-clean",
    ),
]


class TestSpanLabelStability:
    @pytest.mark.parametrize("path, code, expected", SPAN_CASES)
    def test_case(self, path, code, expected):
        assert_finds("SpanLabelStability", {path: code}, expected)

    @pytest.mark.parametrize(
        "label",
        [
            'f"CoeffToSlot {i}"',
            '"CoeffToSlot %d" % i',
            '"CoeffToSlot {}".format(i)',
            '"CoeffToSlot " + str(i)',
        ],
    )
    def test_dynamic_labels_flagged(self, label):
        found = check(
            {
                "perf/bootstrap.py": f"""
                def run(obs, i):
                    with obs.span({label}):
                        pass
                """
            },
            "SpanLabelStability",
        )
        assert [f.rule for f in found] == ["SpanLabelStability"]
        assert found[0].line == 3

    def test_static_label_with_attrs_is_clean(self):
        found = check(
            {
                "perf/bootstrap.py": """
                def run(obs, i, level):
                    with obs.span("CoeffToSlot:iter", iter=i, level=level):
                        pass
                """
            },
            "SpanLabelStability",
        )
        assert found == []

    def test_plain_name_label_is_clean(self):
        # Labels bound from a static table are a legitimate pattern.
        found = check(
            {
                "apps/workload.py": """
                def run(obs, op_units):
                    for op_name, cost in op_units:
                        with obs.span(op_name, cost=cost):
                            pass
                """
            },
            "SpanLabelStability",
        )
        assert found == []

    def test_module_level_span_helper_also_checked(self):
        found = check(
            {
                "ckks/bootstrap.py": """
                def run(span, k):
                    with span(f"EvalMod {k}"):
                        pass
                """
            },
            "SpanLabelStability",
        )
        assert len(found) == 1


# ----------------------------------------------------------------------
# ExactArithPurity
# ----------------------------------------------------------------------
EXACT_CASES = [
    pytest.param(
        "numth/ntt.py", "scale /= n\n",
        [(1, 1, "true division `/`")], id="augmented-division",
    ),
    pytest.param(
        "ring/polynomial.py", "root = 1j\n",
        [(1, 8, "complex literal 1j")], id="complex-literal",
    ),
    pytest.param(
        "numth/ntt.py", "z = complex(a, b)\n",
        [(1, 5, "`complex()` conversion")], id="complex-builtin",
    ),
    pytest.param(
        "numth/primes.py", "bound = math.pi\n",
        [(1, 9, "`math.pi` is not exact")], id="math-constant",
    ),
    pytest.param(
        "ring/polynomial.py", "k = math.floor(x)\n",
        [(1, 5, "`math.floor` is not exact")], id="math-floor",
    ),
    pytest.param(
        "numth/crt.py", "from numpy import int64\n",
        [(1, 1, "numpy import")], id="from-numpy-import",
    ),
    pytest.param(
        "numth/crt.py", "import numpy.linalg\n",
        [(1, 1, "numpy import")], id="numpy-submodule-import",
    ),
    pytest.param(
        "numth/crt.py", "from numpy.fft import fft\n",
        [(1, 1, "numpy import")], id="from-numpy-submodule-import",
    ),
    pytest.param(
        "src/repro/ring/polynomial.py", "half = 0.5\n",
        [(1, 8, "float literal 0.5")], id="scope-matches-below-a-root",
    ),
    pytest.param(
        "kernels/fourstep_reference.py", "half = 0.5\n",
        [(1, 8, "float literal 0.5")], id="float-kernel-lookalike-is-checked",
    ),
    pytest.param(
        "kernels/ntt.py", "from numpy import uint64\n",
        [], id="from-numpy-in-kernels-is-clean",
    ),
    pytest.param(
        "numth/crt.py", "from . import modular\n",
        [], id="relative-import-is-clean",
    ),
    pytest.param(
        "numth/primes.py",
        "v = math.comb(n, k) * math.lcm(a, b) * math.perm(n)"
        " * math.factorial(n) * math.prod(xs)\n",
        [], id="rest-of-the-exact-math-subset-is-clean",
    ),
    pytest.param(
        "numth/modular.py", "ok = isinstance(x, float)\n",
        [], id="float-type-without-a-call-is-clean",
    ),
    pytest.param(
        "numth_tools/bench.py", "half = 1 / 2\n",
        [], id="directory-name-prefix-is-out-of-scope",
    ),
]


class TestExactArithPurity:
    @pytest.mark.parametrize("path, code, expected", EXACT_CASES)
    def test_case(self, path, code, expected):
        assert_finds("ExactArithPurity", {path: code}, expected)

    def test_true_division_flagged_in_numth(self):
        found = check(
            {
                "numth/modular.py": """
                def half(a, q):
                    return (a / 2) % q
                """
            },
            "ExactArithPurity",
        )
        assert rules_of(found) == [("ExactArithPurity", 3)]

    def test_float_literal_and_builtin_flagged_in_ring(self):
        found = check(
            {
                "ring/conversion.py": """
                def approx(x):
                    scale = 0.5
                    return float(x) * scale
                """
            },
            "ExactArithPurity",
        )
        assert sorted(f.line for f in found) == [3, 4]

    def test_inexact_math_and_numpy_flagged(self):
        found = check(
            {
                "numth/ntt.py": """
                import math
                import numpy as np

                def bits(n):
                    return math.log2(n)
                """
            },
            "ExactArithPurity",
        )
        assert sorted(f.line for f in found) == [3, 6]

    def test_exact_math_subset_and_floordiv_are_clean(self):
        found = check(
            {
                "numth/primes.py": """
                import math

                def reduce(d, x, y, n):
                    d //= 2
                    return math.gcd(abs(x - y), n), math.isqrt(n)
                """
            },
            "ExactArithPurity",
        )
        assert found == []

    def test_kernels_allow_numpy_but_stay_float_free(self):
        found = check(
            {
                "kernels/ntt.py": """
                import numpy as np

                def untwist(x, n):
                    return x * (1.0 / n)
                """
            },
            "ExactArithPurity",
        )
        # The numpy import is sanctioned in kernels/; the float literal
        # and the true division are not.
        assert all(f.line == 5 for f in found)
        assert len(found) == 2

    def test_float_kernel_file_may_use_floats(self):
        found = check(
            {
                "kernels/fourstep.py": """
                import numpy as np

                def reduce(v, q):
                    qinv = 1.0 / q
                    return v - np.rint(v * qinv) * float(q)
                """
            },
            "ExactArithPurity",
        )
        assert found == []

    @pytest.mark.parametrize(
        "path", ["kernels/conversion.py", "kernels/ntt.py", "kernels/reduce.py"]
    )
    def test_other_kernel_files_stay_float_free(self, path):
        found = check(
            {
                path: """
                def scale(v, q):
                    return v * 0.5 + v / q + float(q)
                """
            },
            "ExactArithPurity",
        )
        assert len(found) == 3
        assert all(f.line == 3 for f in found)

    def test_float_kernel_scope_names_one_file(self):
        assert isinstance(FLOAT_KERNEL_FILE, str)
        assert FLOAT_KERNEL_FILE == "kernels/fourstep.py"
        assert (SRC / FLOAT_KERNEL_FILE).is_file()

    def test_ring_allows_numpy_but_stays_float_free(self):
        found = check(
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
            "ExactArithPurity",
        )
        # ring/ may import numpy, but its float literal is still flagged;
        # numth/ (the pure-Python oracle) may not import numpy at all.
        assert sorted(
            (f.path.split("/")[-2], f.line) for f in found
        ) == [("numth", 2), ("ring", 5)]

    def test_floats_allowed_outside_exact_paths(self):
        found = check(
            {
                "hardware/roofline.py": """
                import math

                def seconds(ops, rate):
                    return ops / rate + math.log2(rate) * 0.0
                """
            },
            "ExactArithPurity",
        )
        assert found == []


# ----------------------------------------------------------------------
# UnitsHygiene
# ----------------------------------------------------------------------
UNITS_CASES = [
    pytest.param(
        "perf/events.py", "left = free_bytes - spare_ops\n",
        [(1, 8, "subtracts a byte-valued and an op-valued")], id="subtraction",
    ),
    pytest.param(
        "perf/events.py", "x = ct_read + mults\n",
        [(1, 5, "adds a byte-valued and an op-valued")], id="bare-field-names",
    ),
    pytest.param(
        "hardware/roofline.py", "work = total_bytes() + total_ops()\n",
        [(1, 8, "adds")], id="calls-take-their-function-unit",
    ),
    pytest.param(
        "hardware/roofline.py", "work = cost.dram_bytes() + cost.total_ops()\n",
        [(1, 8, "adds")], id="method-calls-take-their-method-unit",
    ),
    pytest.param(
        "hardware/roofline.py", "work = key_bytes + rot_ops + ct_bytes\n",
        [(1, 8, "adds")], id="mixed-sum-is-reported-once",
    ),
    pytest.param(
        "perf/matvec.py", "total_bytes = key_bytes + rot_ops\n",
        [(1, 15, "adds")], id="mixed-value-is-not-also-a-bad-assignment",
    ),
    pytest.param(
        "perf/matvec.py", "debt_ops = -size_bytes\n",
        [(1, 1, "assigns a bytes-valued expression to `debt_ops`")],
        id="unary-keeps-the-unit",
    ),
    pytest.param(
        "perf/matvec.py", "limit_ops = a_bytes if wide else b_bytes\n",
        [(1, 1, "assigns a bytes-valued expression to `limit_ops`")],
        id="conditional-with-agreeing-branches",
    ),
    pytest.param(
        "perf/matvec.py", "budget_ops: int = cache_bytes\n",
        [(1, 1, "assigns a bytes-valued expression to `budget_ops`")],
        id="annotated-assignment",
    ),
    pytest.param(
        "perf/matvec.py", "total_ops += cost.traffic\n",
        [(1, 1, "assigns a bytes-valued expression to `total_ops`")],
        id="augmented-assignment",
    ),
    pytest.param(
        "perf/matvec.py", "self.total_ops = cost.traffic\n",
        [(1, 1, "assigns a bytes-valued expression to `total_ops`")],
        id="attribute-target",
    ),
    pytest.param(
        "perf/matvec.py", "_spill_bytes = cost.ops\n",
        [(1, 1, "assigns a ops-valued expression to `_spill_bytes`")],
        id="leading-underscore-keeps-the-unit",
    ),
    pytest.param(
        "perf/keyswitch.py", "def rotate_ops(cost):\n    return cost.key_read\n",
        [(2, 5, "`rotate_ops` is named as a ops accessor but returns a bytes")],
        id="ops-accessor-returning-bytes",
    ),
    pytest.param(
        "perf/matvec.py", "limit_ops = a_bytes if wide else b_ops\n",
        [], id="conditional-with-disagreeing-branches-is-unknown",
    ),
    pytest.param(
        "hardware/roofline.py", "work = handlers[0]() + size_bytes\n",
        [], id="call-of-a-subscript-is-unknown",
    ),
    pytest.param(
        "perf/matvec.py", "budget_ops: int\n",
        [], id="bare-annotation-is-clean",
    ),
    pytest.param(
        "perf/matvec.py", 'table["total_ops"] = cost.traffic\n',
        [], id="subscript-target-has-no-unit",
    ),
]


class TestUnitsHygiene:
    @pytest.mark.parametrize("path, code, expected", UNITS_CASES)
    def test_case(self, path, code, expected):
        assert_finds("UnitsHygiene", {path: code}, expected)

    def test_cross_assignment_flagged(self):
        found = check(
            {
                "perf/matvec.py": """
                def leak(cost):
                    total_ops = cost.traffic.total
                    return total_ops
                """
            },
            "UnitsHygiene",
        )
        assert rules_of(found) == [("UnitsHygiene", 3)]

    def test_additive_mixing_flagged(self):
        found = check(
            {
                "hardware/runtime.py": """
                def combined(cost):
                    return cost.ops.total + cost.traffic.total
                """
            },
            "UnitsHygiene",
        )
        assert rules_of(found) == [("UnitsHygiene", 3)]

    def test_accessor_name_contract_flagged(self):
        found = check(
            {
                "perf/events.py": """
                class MemTraffic:
                    def total_bytes(self):
                        return self.mults + self.adds
                """
            },
            "UnitsHygiene",
        )
        assert [f.rule for f in found] == ["UnitsHygiene"]

    def test_matching_units_and_derived_units_are_clean(self):
        found = check(
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
            "UnitsHygiene",
        )
        assert found == []

    def test_unknown_units_never_flagged(self):
        found = check(
            {
                "search/space.py": """
                def mix(a, b):
                    return a + b
                """
            },
            "UnitsHygiene",
        )
        assert found == []


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
    def test_dead_flag_reported_at_definition(self):
        found = check(
            {
                "perf/optimizations.py": _CONFIG,
                "perf/primitives.py": """
                def cost(config):
                    if config.cache_o1:
                        return 1
                    return 2
                """,
            },
            "ConfigFlagCoverage",
        )
        assert len(found) == 1
        finding = found[0]
        assert finding.rule == "ConfigFlagCoverage"
        assert finding.path.endswith("perf/optimizations.py")
        assert "mod_down_merge" in finding.message

    def test_all_flags_read_is_clean(self):
        found = check(
            {
                "perf/optimizations.py": _CONFIG,
                "perf/primitives.py": """
                def cost(config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            "ConfigFlagCoverage",
        )
        assert found == []

    def test_reads_in_defining_module_do_not_count(self):
        # __post_init__ validation reads are not model coverage.
        found = check(
            {
                "perf/optimizations.py": _CONFIG
                + """

    def __post_init__(self):
        assert not (self.mod_down_merge and not self.cache_o1)
                """,
            },
            "ConfigFlagCoverage",
        )
        assert {f.message.split("`")[1] for f in found} == {
            "cache_o1",
            "mod_down_merge",
        }

    def test_reads_outside_perf_do_not_count(self):
        found = check(
            {
                "perf/optimizations.py": _CONFIG,
                "report/tables.py": """
                def cost(config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            "ConfigFlagCoverage",
        )
        assert len(found) == 2

    def test_reads_in_sweep_count_as_coverage(self):
        # Reads in sweep/ count too: ablation evaluators
        # dispatch on the same flags the cost formulas consume.
        found = check(
            {
                "perf/optimizations.py": _CONFIG,
                "sweep/evaluators.py": """
                def evaluate(point, config):
                    return (config.cache_o1, config.mod_down_merge)
                """,
            },
            "ConfigFlagCoverage",
        )
        assert found == []

    def test_no_madconfig_definition_is_clean(self):
        found = check(
            {
                "perf/primitives.py": """
                def cost(config):
                    return config.cache_o1
                """
            },
            "ConfigFlagCoverage",
        )
        assert found == []

    @pytest.mark.parametrize(
        "files, expected",
        [
            pytest.param(
                {
                    "perf/optimizations.py": _CONFIG
                    + "    key_compression: bool = False\n",
                    "perf/primitives.py": "hoisted = config.key_compression\n",
                },
                [(7, 5, "`cache_o1`"), (8, 5, "`mod_down_merge`")],
                id="dead-flags-anchored-in-definition-order",
            ),
            pytest.param(
                {
                    "perf/optimizations.py": _CONFIG,
                    "perf/primitives.py": "config.cache_o1 = True\n"
                    "merged = config.mod_down_merge\n",
                },
                [(7, 5, "`cache_o1`")],
                id="a-store-is-not-a-read",
            ),
            pytest.param(
                {
                    "perf/optimizations.py": _CONFIG + '    LABELS = ("o1", "merge")\n',
                    "perf/primitives.py": "flags = (config.cache_o1, "
                    "config.mod_down_merge)\n",
                },
                [],
                id="unannotated-class-attributes-are-not-flags",
            ),
            pytest.param(
                {
                    "config/mad.py": _CONFIG,
                    "perf/models/keyswitch.py": "flags = (config.cache_o1, "
                    "config.mod_down_merge)\n",
                },
                [],
                id="definition-and-reads-anywhere-below-a-root",
            ),
        ],
    )
    def test_case(self, files, expected):
        assert_finds("ConfigFlagCoverage", files, expected)


# ----------------------------------------------------------------------
# TraceDiscipline
# ----------------------------------------------------------------------
TRACE_CASES = [
    pytest.param(
        "memsim/schedules.py", "event = repro.memsim.trace.Access('r', 'ct', 0)\n",
        [(1, 9, "`Access(...)`")], id="qualified-constructor",
    ),
    pytest.param(
        "perf/cache.py", "event = PinEvent(block)\n",
        [(1, 9, "`PinEvent(...)`")], id="construction-outside-memsim",
    ),
    pytest.param(
        "memsim/trace.py", "self.block_bytes += 1\n",
        [(1, 1, "accumulates `block_bytes`")], id="trace-module-still-counted",
    ),
    pytest.param(
        "memsim/validate.py", "self.stats.read_bytes += n\n",
        [(1, 1, "accumulates `read_bytes`")], id="attribute-chain-accumulation",
    ),
    pytest.param(
        "memsim/accounting_view.py", "self.ct_read_bytes += n\n",
        [(1, 1, "accumulates `ct_read_bytes`")], id="accounting-lookalike-is-checked",
    ),
    pytest.param(
        "memsim/simulator.py", "handlers[kind](event)\n",
        [], id="call-of-a-subscript-is-clean",
    ),
    pytest.param(
        "memsim/simulator.py", "self.hits += 1\n",
        [], id="non-byte-counter-is-clean",
    ),
]


class TestTraceDiscipline:
    @pytest.mark.parametrize("path, code, expected", TRACE_CASES)
    def test_case(self, path, code, expected):
        assert_finds("TraceDiscipline", {path: code}, expected)

    def test_direct_event_construction_flagged(self):
        found = check(
            {
                "memsim/schedules.py": """
                from repro.memsim.trace import Access

                def emit(events, block):
                    events.append(Access("r", "ct", block))
                """
            },
            "TraceDiscipline",
        )
        assert rules_of(found) == [("TraceDiscipline", 5)]
        assert "TraceRecorder" in found[0].message

    @pytest.mark.parametrize(
        "event", ["BulkAccess", "PinEvent", "FlushEvent"]
    )
    def test_every_event_type_is_guarded(self, event):
        found = check(
            {
                "memsim/simulator.py": f"""
                from repro.memsim import trace

                def emit(events):
                    events.append(trace.{event}())
                """
            },
            "TraceDiscipline",
        )
        assert rules_of(found) == [("TraceDiscipline", 5)]

    def test_trace_module_may_construct_events(self):
        found = check(
            {
                "memsim/trace.py": """
                def read(self, block):
                    self._events.append(Access("r", "ct", block))
                """
            },
            "TraceDiscipline",
        )
        assert found == []

    def test_isinstance_checks_are_not_construction(self):
        found = check(
            {
                "memsim/simulator.py": """
                from repro.memsim.trace import Access

                def replay(events):
                    return [e for e in events if isinstance(e, Access)]
                """
            },
            "TraceDiscipline",
        )
        assert found == []

    def test_byte_accumulation_outside_accounting_flagged(self):
        found = check(
            {
                "memsim/simulator.py": """
                def replay(self, trace):
                    self.ct_read_bytes += trace.block_bytes
                """
            },
            "TraceDiscipline",
        )
        assert rules_of(found) == [("TraceDiscipline", 3)]
        assert "DramCounters" in found[0].message

    def test_local_shadow_total_flagged(self):
        found = check(
            {
                "memsim/validate.py": """
                def total(trace):
                    simulated_bytes = 0
                    for event in trace:
                        simulated_bytes += 8
                    return simulated_bytes
                """
            },
            "TraceDiscipline",
        )
        assert rules_of(found) == [("TraceDiscipline", 5)]

    def test_accounting_module_may_accumulate(self):
        found = check(
            {
                "memsim/accounting.py": """
                def add_read(self, nbytes):
                    self.ct_read_bytes += nbytes
                """
            },
            "TraceDiscipline",
        )
        assert found == []

    def test_accumulation_outside_memsim_not_this_rules_business(
        self
    ):
        found = check(
            {
                "apps/workload.py": """
                def total():
                    dram_bytes = 0
                    dram_bytes += 8
                    return dram_bytes
                """
            },
            "TraceDiscipline",
        )
        assert found == []  # LedgerDiscipline territory, not TraceDiscipline


# ----------------------------------------------------------------------
# TelemetryDiscipline
# ----------------------------------------------------------------------
TELEMETRY_CASES = [
    pytest.param(
        "sweep/engine.py", "n = gc.get_count()\n",
        [(1, 5, "`gc.get_count(...)`")], id="gc-get-count",
    ),
    pytest.param(
        "sweep/engine.py", "t = time.process_time_ns()\n",
        [(1, 5, "`time.process_time_ns(...)`")], id="process-time-ns",
    ),
    pytest.param(
        "sweep/engine.py", "page = resource.getpagesize()\n",
        [(1, 8, "`resource.getpagesize(...)`")], id="any-resource-call",
    ),
    pytest.param(
        "obs/profiler_helpers.py", "t = time.process_time()\n",
        [(1, 5, "`time.process_time(...)`")], id="profiler-lookalike-is-checked",
    ),
    pytest.param(
        "src/repro/obs/profiler.py", "t = time.process_time()\n",
        [], id="profiler-below-a-root-is-exempt",
    ),
]


class TestTelemetryDiscipline:
    @pytest.mark.parametrize("path, code, expected", TELEMETRY_CASES)
    def test_case(self, path, code, expected):
        assert_finds("TelemetryDiscipline", {path: code}, expected)

    def test_getrusage_outside_profiler_flagged(self):
        found = check(
            {
                "sweep/engine.py": """
                import resource

                def worker_rss():
                    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                """
            },
            "TelemetryDiscipline",
        )
        assert rules_of(found) == [("TelemetryDiscipline", 5)]
        assert "obs/profiler.py" in found[0].message

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
    def test_every_sampling_api_is_guarded(self, call):
        module = call.split(".")[0]
        found = check(
            {
                "obs/export.py": f"""
                import {module}

                def sample():
                    return {call}
                """
            },
            "TelemetryDiscipline",
        )
        assert rules_of(found) == [("TelemetryDiscipline", 5)]

    def test_profiler_module_may_sample(self):
        found = check(
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
            "TelemetryDiscipline",
        )
        assert found == []

    def test_other_gc_and_time_calls_are_fine(self):
        found = check(
            {
                "sweep/engine.py": """
                import gc
                import time

                def run():
                    gc.collect()
                    return time.perf_counter()
                """
            },
            "TelemetryDiscipline",
        )
        assert found == []


# ----------------------------------------------------------------------
# SchemaIdLiteral
# ----------------------------------------------------------------------
SCHEMA_CASES = [
    pytest.param(
        "obs/export.py", 'validate(doc, "repro.obs.events/v1")\n',
        [(1, 15, "'repro.obs.events/v1'")], id="argument-of-another-call",
    ),
    pytest.param(
        "obs/export.py", 'ID = "repro.obs.run_report/v1.1.2"\n',
        [(1, 6, "'repro.obs.run_report/v1.1.2'")], id="multi-part-version",
    ),
    pytest.param(
        "obs/events.py", 'EVENTS = Schema(id="repro.obs.events/v1", body={})\n',
        [], id="keyword-of-a-declaration-is-fine",
    ),
    pytest.param(
        "obs/export.py", 'ID = "repro/v1"\n',
        [], id="no-dotted-family-is-not-an-id",
    ),
    pytest.param(
        "obs/export.py", 'ID = "repro.obs.Run/v1"\n',
        [], id="upper-case-is-not-an-id",
    ),
    pytest.param(
        "obs/export.py", 'ID = "repro.obs.run_report/v1-rc"\n',
        [], id="version-suffix-is-not-an-id",
    ),
    pytest.param(
        "obs/export.py", 'ID = b"repro.obs.events/v1"\n',
        [], id="bytes-are-not-an-id",
    ),
]


class TestSchemaIdLiteral:
    @pytest.mark.parametrize("path, code, expected", SCHEMA_CASES)
    def test_case(self, path, code, expected):
        assert_finds("SchemaIdLiteral", {path: code}, expected)

    def test_literal_outside_a_declaration_flagged(self):
        found = check(
            {
                "sweep/engine.py": """
                import json

                def emit(handle, data):
                    line = {"schema": "repro.obs.events/v1", "data": data}
                    handle.write(json.dumps(line))
                """
            },
            "SchemaIdLiteral",
        )
        assert rules_of(found) == [("SchemaIdLiteral", 5)]
        assert "FAMILY.id" in found[0].message

    def test_literal_inside_a_declaration_is_fine(self):
        found = check(
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
            "SchemaIdLiteral",
        )
        assert found == []

    def test_module_constant_holding_an_id_flagged(self):
        found = check(
            {
                "obs/export.py": """
                SCHEMA_ID = "repro.obs.run_report/v1.1"
                ACCEPTED = ("repro.obs.run_report/v1", SCHEMA_ID)
                """
            },
            "SchemaIdLiteral",
        )
        assert rules_of(found) == [
            ("SchemaIdLiteral", 2),
            ("SchemaIdLiteral", 3),
        ]

    def test_prose_mentions_are_not_schema_ids(self):
        found = check(
            {
                "cli.py": """
                HELP = "stream a repro.obs.events/v1 JSONL event log here"
                """
            },
            "SchemaIdLiteral",
        )
        assert found == []


# ----------------------------------------------------------------------
# Findings do not depend on the order files are visited
# ----------------------------------------------------------------------
#: A small tree with one cross-file finding (a flag read only by its own
#: ``__post_init__``) and one per-file finding from each of two rules.
ORDER_FILES = {
    "perf/optimizations.py": """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MADConfig:
            cache_o1: bool = False
            merge_moddown: bool = False
            phantom_flag: bool = False

            def __post_init__(self):
                assert isinstance(self.phantom_flag, bool)
        """,
    "perf/keyswitch.py": """
        def cost(config, report):
            if config.cache_o1:
                return report
            return report
        """,
    "sweep/grid.py": """
        def ablations(config):
            return [config.merge_moddown]
        """,
    "perf/primitives.py": """
        def leak(reports):
            dram_bytes = 0
            for report in reports:
                dram_bytes += report.traffic.total
            return dram_bytes
        """,
    "numth/approx.py": """
        def scale(n):
            return 1 / n
        """,
}
ORDER_TREES = [
    (path, ast.parse(textwrap.dedent(code))) for path, code in ORDER_FILES.items()
]


def _all_findings(trees):
    return sorted(
        (f.path, f.line, f.col, f.rule, f.message)
        for rule in RULES
        for f in findings(rule, dict(trees))
    )


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(ORDER_TREES))))
def test_findings_are_independent_of_file_visit_order(order):
    permuted = [ORDER_TREES[i] for i in order]
    assert _all_findings(permuted) == _all_findings(ORDER_TREES)


def test_order_fixture_actually_finds_violations():
    # Guard against the permutation test passing vacuously.
    by_rule = {}
    for path, _, _, rule, message in _all_findings(ORDER_TREES):
        by_rule.setdefault(rule, []).append((path, message))
    assert sorted(by_rule) == [
        "ConfigFlagCoverage",
        "ExactArithPurity",
        "LedgerDiscipline",
    ]
    [(where, message)] = by_rule["ConfigFlagCoverage"]
    assert where == "perf/optimizations.py" and "phantom_flag" in message
