"""The schema table: its interpreter, every family's conformance, fixtures.

Every registered family's real producer output must validate under
:func:`repro.obs.schema.validate` and under ``jsonschema`` (the CI
cross-check on the same spec dicts), as no other family, and
byte-stably through :func:`~repro.obs.schema.write` and
:func:`~repro.obs.schema.load`.  Every mutation in
:data:`MUTATIONS`, gathered from the per-family rejection tests, must be
rejected by both, naming the field path.  The rule JSON Schema cannot
state (unique sweep indices) is a family post-check, which only the
table's validator runs.  The ``provenance`` producer is checked against
the :data:`~repro.obs.schema.PROVENANCE` spec it fills.
"""

import functools
import json
import re
from pathlib import Path

import pytest

from repro.memsim.validate import MEMSIM_REPORT
from repro.obs import schema
from repro.obs.diff import COST_DIFF, DIFF_OVERLAY
from repro.obs.export import RUN_REPORT
from repro.obs.schema import PROVENANCE, SCHEMAS, Schema
from repro.sweep.report import SWEEP_REPORT

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# One real producer per family
# ----------------------------------------------------------------------
def _micro_report(config_name):
    from repro.obs import state
    from repro.obs.bench import primitive_micro_cost
    from repro.obs.export import build_run_report
    from repro.params import BASELINE_JUNG
    from repro.perf import MADConfig

    with state.capture() as (tracer, registry):
        primitive_micro_cost(BASELINE_JUNG, getattr(MADConfig, config_name)())
    return build_run_report(tracer, registry, command="test", workload="micro")


def _cost_diff():
    from repro.obs.diff import diff_run_reports

    return diff_run_reports(_micro_report("none"), _micro_report("all"))


def _diff_overlay():
    from repro.obs.diff import build_overlay_trace

    return build_overlay_trace(_micro_report("none"), _micro_report("all"))


def _sweep_report():
    from repro.sweep import SweepAxis, SweepSpec, build_sweep_report, run_sweep
    from tests.sweep import test_engine  # noqa: F401  (adds test.echo)

    spec = SweepSpec(
        name="toy-schema",
        evaluator="test.echo",
        axes=(SweepAxis("a", (1, 2)), SweepAxis("b", ("x",))),
        context={"scale": 3},
    )
    return build_sweep_report(run_sweep(spec))


def _memsim_report():
    from repro.memsim.validate import run_validation
    from repro.perf import MADConfig

    return run_validation(
        runs=[("Baseline", MADConfig.none(), 2.0)], primitives=["decomp"]
    )


PRODUCERS = {
    RUN_REPORT: lambda: _micro_report("none"),
    SWEEP_REPORT: _sweep_report,
    MEMSIM_REPORT: _memsim_report,
    COST_DIFF: _cost_diff,
    DIFF_OVERLAY: _diff_overlay,
}
FAMILIES = sorted(PRODUCERS, key=lambda family: family.id)


@functools.lru_cache(maxsize=None)
def _produced_json(family_id):
    return json.dumps(PRODUCERS[SCHEMAS[family_id]]())


def produced(family):
    """A fresh copy of the family's real producer output."""
    return json.loads(_produced_json(family.id))


# ----------------------------------------------------------------------
# The mutation corpus
# ----------------------------------------------------------------------
def _set(path, value):
    def mutate(doc):
        for part in path[:-1]:
            doc = doc[part]
        doc[path[-1]] = value

    return mutate


def _drop(path):
    def mutate(doc):
        for part in path[:-1]:
            doc = doc[part]
        del doc[path[-1]]

    return mutate


def _append(path, value):
    def mutate(doc):
        for part in path:
            doc = doc[part]
        doc.append(value)

    return mutate


def _case(family, label, mutate, where, post_check=False):
    return pytest.param(
        family, mutate, where, post_check, id=f"{family.id}:{label}"
    )


MUTATIONS = [
    # run_report (tests/obs/test_export.py)
    _case(RUN_REPORT, "no-spans", _drop(["spans"]), "'spans'"),
    _case(RUN_REPORT, "no-metrics", _drop(["metrics"]), "'metrics'"),
    _case(RUN_REPORT, "bogus-id", _set(["schema"], "bogus/v0"), "schema:"),
    _case(RUN_REPORT, "legacy-id", _set(["schema"], "repro.obs.run_report/v1"), "schema:"),
    _case(RUN_REPORT, "negative-wall", _set(["wall_seconds"], -1.0), "wall_seconds"),
    _case(RUN_REPORT, "negative-ops", _set(["totals", "ops", "total"], -5), "totals.ops.total"),
    _case(RUN_REPORT, "string-traffic", _set(["totals", "traffic", "ct_read"], "1"), "totals.traffic.ct_read"),
    _case(RUN_REPORT, "incomplete-span", _append(["spans"], {"name": "x"}), "spans["),
    _case(RUN_REPORT, "span-without-path", _drop(["spans", 0, "path"]), "spans[0]: missing required key 'path'"),
    _case(RUN_REPORT, "no-counters", _drop(["metrics", "counters"]), "metrics: missing"),
    _case(RUN_REPORT, "no-provenance", _drop(["provenance"]), "'provenance'"),
    _case(RUN_REPORT, "provenance-argv-not-list", _set(["provenance", "argv"], "trace"), "provenance.argv"),
    _case(RUN_REPORT, "no-command", _drop(["command"]), "'command'"),
    _case(RUN_REPORT, "numeric-command", _set(["command"], 7), "command"),
    _case(RUN_REPORT, "no-totals", _drop(["totals"]), "'totals'"),
    _case(RUN_REPORT, "totals-without-intensity", _drop(["totals", "arithmetic_intensity"]), "totals: missing required key 'arithmetic_intensity'"),
    _case(RUN_REPORT, "string-intensity", _set(["totals", "arithmetic_intensity"], "high"), "totals.arithmetic_intensity"),
    _case(RUN_REPORT, "fractional-mults", _set(["totals", "ops", "mults"], 1.5), "totals.ops.mults"),
    _case(RUN_REPORT, "traffic-without-pt-read", _drop(["totals", "traffic", "pt_read"]), "totals.traffic: missing required key 'pt_read'"),
    _case(RUN_REPORT, "negative-key-read", _set(["totals", "traffic", "key_read"], -1), "totals.traffic.key_read"),
    _case(RUN_REPORT, "spans-not-list", _set(["spans"], {}), "spans"),
    _case(RUN_REPORT, "negative-span-depth", _set(["spans", 0, "depth"], -1), "spans[0].depth"),
    _case(RUN_REPORT, "negative-span-duration", _set(["spans", 0, "duration_us"], -1.0), "spans[0].duration_us"),
    _case(RUN_REPORT, "span-meta-not-object", _set(["spans", 0, "meta"], []), "spans[0].meta"),
    _case(RUN_REPORT, "no-histograms", _drop(["metrics", "histograms"]), "metrics: missing required key 'histograms'"),
    _case(RUN_REPORT, "numeric-params", _set(["params"], 3), "params"),
    _case(RUN_REPORT, "config-not-object", _set(["config"], ["all"]), "config"),
    _case(RUN_REPORT, "runtime-not-object", _set(["runtime"], "fast"), "runtime"),
    _case(RUN_REPORT, "negative-peak-rss", _set(["resources"], {"peak_rss_bytes": -1}), "resources.peak_rss_bytes"),
    _case(RUN_REPORT, "provenance-without-python", _drop(["provenance", "python"]), "provenance: missing required key 'python'"),
    # sweep (tests/sweep/test_report.py)
    _case(SWEEP_REPORT, "foreign-id", _set(["schema"], "other/v9"), "schema:"),
    _case(SWEEP_REPORT, "legacy-id", _set(["schema"], "repro.sweep/v1"), "schema:"),
    _case(SWEEP_REPORT, "previous-id", _set(["schema"], "repro.sweep/v1.1"), "schema:"),
    _case(SWEEP_REPORT, "no-points", _drop(["points"]), "'points'"),
    _case(SWEEP_REPORT, "points-not-list", _set(["points"], {}), "points"),
    _case(SWEEP_REPORT, "short-fingerprint", _set(["fingerprint"], "zz"), "fingerprint"),
    _case(SWEEP_REPORT, "uppercase-fingerprint", _set(["fingerprint"], "AB" * 32), "fingerprint"),
    _case(SWEEP_REPORT, "no-fingerprint", _drop(["fingerprint"]), "'fingerprint'"),
    _case(SWEEP_REPORT, "no-sweep", _drop(["sweep"]), "'sweep'"),
    _case(SWEEP_REPORT, "numeric-evaluator", _set(["evaluator"], 3), "evaluator"),
    _case(SWEEP_REPORT, "no-memo", _drop(["memo"]), "'memo'"),
    _case(SWEEP_REPORT, "negative-memo-hits", _set(["memo", "hits"], -1), "memo.hits"),
    _case(SWEEP_REPORT, "memo-without-misses", _drop(["memo", "misses"]), "memo: missing required key 'misses'"),
    _case(SWEEP_REPORT, "string-memo-misses", _set(["memo", "misses"], "4"), "memo.misses"),
    _case(SWEEP_REPORT, "no-wall-seconds", _drop(["wall_seconds"]), "'wall_seconds'"),
    _case(SWEEP_REPORT, "negative-wall-seconds", _set(["wall_seconds"], -0.5), "wall_seconds"),
    _case(SWEEP_REPORT, "no-axes", _drop(["axes"]), "'axes'"),
    _case(SWEEP_REPORT, "axis-without-values", _drop(["axes", 0, "values"]), "axes[0]: missing required key 'values'"),
    _case(SWEEP_REPORT, "numeric-axis-name", _set(["axes", 0, "name"], 1), "axes[0].name"),
    _case(SWEEP_REPORT, "axis-values-not-list", _set(["axes", 0, "values"], "1,2"), "axes[0].values"),
    _case(SWEEP_REPORT, "point-without-row", _drop(["points", 0, "row"]), "points[0]"),
    _case(SWEEP_REPORT, "point-without-key", _drop(["points", 0, "key"]), "points[0]: missing required key 'key'"),
    _case(SWEEP_REPORT, "point-key-not-object", _set(["points", 0, "key"], [1]), "points[0].key"),
    _case(SWEEP_REPORT, "string-row", _set(["points", 0, "row"], "x"), "points[0].row"),
    _case(SWEEP_REPORT, "negative-point-index", _set(["points", 0, "index"], -1), "points[0].index"),
    _case(SWEEP_REPORT, "no-provenance", _drop(["provenance"]), "'provenance'"),
    _case(SWEEP_REPORT, "provenance-not-object", _set(["provenance"], "abc"), "provenance"),
    _case(SWEEP_REPORT, "numeric-config-fingerprint", _set(["provenance", "config_fingerprint"], 7), "provenance.config_fingerprint"),
    _case(SWEEP_REPORT, "duplicated-index", _set(["points", 1, "index"], 0), "points[1].index", post_check=True),
    _case(SWEEP_REPORT, "numeric-sweep", _set(["sweep"], 5), "sweep"),
    _case(SWEEP_REPORT, "fractional-point-index", _set(["points", 0, "index"], 0.5), "points[0].index"),
    # memsim (tests/memsim/test_validate.py)
    _case(MEMSIM_REPORT, "foreign-id", _set(["schema"], "nope"), "schema:"),
    _case(MEMSIM_REPORT, "no-pin-failures", _drop(["runs", 0, "primitives", 0, "pin_failures"]), "'pin_failures'"),
    _case(MEMSIM_REPORT, "negative-stream-bytes", _set(["runs", 0, "primitives", 0, "streams", "ct_read", "simulated"], -1), "streams.ct_read.simulated"),
    _case(MEMSIM_REPORT, "unknown-policy", _set(["policy"], "fifo"), "policy"),
    _case(MEMSIM_REPORT, "provenance-without-sha", _drop(["provenance", "git_sha"]), "provenance"),
    _case(MEMSIM_REPORT, "string-git-dirty", _set(["provenance", "git_dirty"], "yes"), "provenance.git_dirty"),
    _case(MEMSIM_REPORT, "zero-block-bytes", _set(["block_bytes"], 0), "block_bytes"),
    _case(MEMSIM_REPORT, "negative-tolerance", _set(["tolerance"], -0.01), "tolerance"),
    _case(MEMSIM_REPORT, "run-without-label", _drop(["runs", 0, "label"]), "runs[0]: missing required key 'label'"),
    _case(MEMSIM_REPORT, "negative-capacity", _set(["runs", 0, "capacity_limbs"], -1), "runs[0].capacity_limbs"),
    _case(MEMSIM_REPORT, "string-fit-broken", _set(["runs", 0, "primitives", 0, "fit_broken"], "no"), "primitives[0].fit_broken"),
    _case(MEMSIM_REPORT, "numeric-reason", _set(["runs", 0, "primitives", 0, "reason"], 3), "primitives[0].reason"),
    _case(MEMSIM_REPORT, "no-key-read-stream", _drop(["runs", 0, "primitives", 0, "streams", "key_read"]), "streams: missing required key 'key_read'"),
    _case(MEMSIM_REPORT, "stream-without-rel-error", _drop(["runs", 0, "primitives", 0, "streams", "ct_read", "rel_error"]), "streams.ct_read: missing required key 'rel_error'"),
    _case(MEMSIM_REPORT, "no-runs", _drop(["runs"]), "'runs'"),
    _case(MEMSIM_REPORT, "string-verdict", _set(["passed"], "yes"), "passed"),
    _case(MEMSIM_REPORT, "numeric-params", _set(["params"], 1), "params"),
    _case(MEMSIM_REPORT, "negative-cache-mb", _set(["runs", 0, "cache_mb"], -1.0), "runs[0].cache_mb"),
    _case(MEMSIM_REPORT, "fractional-capacity", _set(["runs", 0, "capacity_limbs"], 1.5), "runs[0].capacity_limbs"),
    _case(MEMSIM_REPORT, "run-without-primitives", _drop(["runs", 0, "primitives"]), "runs[0]: missing required key 'primitives'"),
    _case(MEMSIM_REPORT, "primitive-without-expected-break", _drop(["runs", 0, "primitives", 0, "expected_fit_break"]), "primitives[0]: missing required key 'expected_fit_break'"),
    _case(MEMSIM_REPORT, "negative-pin-failures", _set(["runs", 0, "primitives", 0, "pin_failures"], -1), "primitives[0].pin_failures"),
    _case(MEMSIM_REPORT, "string-max-error", _set(["runs", 0, "primitives", 0, "max_abs_rel_error"], "big"), "primitives[0].max_abs_rel_error"),
    _case(MEMSIM_REPORT, "negative-analytical-bytes", _set(["runs", 0, "primitives", 0, "streams", "pt_read", "analytical"], -1), "streams.pt_read.analytical"),
    # cost_diff (tests/obs/test_diff.py)
    _case(COST_DIFF, "no-spans", _drop(["spans"]), "'spans'"),
    _case(COST_DIFF, "foreign-id", _set(["schema"], "wrong"), "schema:"),
    _case(COST_DIFF, "string-identical", _set(["identical"], "yes"), "identical"),
    _case(COST_DIFF, "no-delta-traffic", _drop(["totals", "delta", "traffic"]), "totals.delta"),
    _case(COST_DIFF, "unknown-status", _set(["spans", 0, "status"], "mutated"), "spans[0].status"),
    _case(COST_DIFF, "string-delta", _set(["spans", 0, "traffic", "delta", "ct_read"], "1"), "spans[0].traffic.delta.ct_read"),
    _case(COST_DIFF, "share-above-one", _set(["spans", 0, "traffic_share"], 1.5), "spans[0].traffic_share"),
    _case(COST_DIFF, "no-counters", _drop(["metrics", "counters"]), "metrics"),
    _case(COST_DIFF, "partial-counter", _set(["metrics", "counters", "x"], {"base": 1}), "metrics.counters.x"),
    _case(COST_DIFF, "base-without-workload", _drop(["base", "workload"]), "base"),
    _case(COST_DIFF, "no-base", _drop(["base"]), "'base'"),
    _case(COST_DIFF, "string-base-wall", _set(["base", "wall_seconds"], "slow"), "base.wall_seconds"),
    _case(COST_DIFF, "other-without-command", _drop(["other", "command"]), "other"),
    _case(COST_DIFF, "totals-without-delta", _drop(["totals", "delta"]), "totals: missing required key 'delta'"),
    _case(COST_DIFF, "fractional-delta-mults", _set(["totals", "delta", "ops", "mults"], 0.5), "totals.delta.ops.mults"),
    _case(COST_DIFF, "negative-share", _set(["spans", 0, "traffic_share"], -0.1), "spans[0].traffic_share"),
    _case(COST_DIFF, "span-without-status", _drop(["spans", 0, "status"]), "spans[0]: missing required key 'status'"),
    _case(COST_DIFF, "numeric-base-name", _set(["spans", 0, "base_name"], 1), "spans[0].base_name"),
    _case(COST_DIFF, "span-ops-without-delta", _drop(["spans", 0, "ops", "delta"]), "spans[0].ops: missing required key 'delta'"),
    _case(COST_DIFF, "no-metrics", _drop(["metrics"]), "'metrics'"),
    _case(COST_DIFF, "fractional-counter-delta", _set(["metrics", "counters", "x"], {"base": 1, "other": 2, "delta": 0.5}), "metrics.counters.x.delta"),
    # diff_overlay
    _case(DIFF_OVERLAY, "foreign-id", _set(["otherData", "schema"], "repro.obs.diff_overlay/v0"), "otherData.schema"),
    _case(DIFF_OVERLAY, "string-identical", _set(["otherData", "identical"], "no"), "otherData.identical"),
    _case(DIFF_OVERLAY, "events-not-list", _set(["traceEvents"], {}), "traceEvents"),
    _case(DIFF_OVERLAY, "no-events", _drop(["traceEvents"]), "'traceEvents'"),
    _case(DIFF_OVERLAY, "no-identical", _drop(["otherData", "identical"]), "otherData: missing required key 'identical'"),
    _case(DIFF_OVERLAY, "no-id", _drop(["otherData", "schema"]), "otherData: missing required key 'schema'"),
    _case(DIFF_OVERLAY, "no-other-data", _drop(["otherData"]), "'otherData'"),
    _case(DIFF_OVERLAY, "other-data-not-object", _set(["otherData"], []), "otherData"),
]


# ----------------------------------------------------------------------
# Conformance
# ----------------------------------------------------------------------
def test_every_registered_family_has_a_producer():
    assert len(SCHEMAS) == 5
    assert set(PRODUCERS) == set(SCHEMAS.values())


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.id)
def test_producer_output_validates(family):
    schema.validate(produced(family), family)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.id)
def test_producer_output_validates_with_jsonschema(family):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(produced(family), family.spec)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.id)
def test_wrong_document_type_is_rejected(family):
    with pytest.raises(ValueError, match=f"invalid {family.id}: document"):
        schema.validate([], family)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.id)
def test_document_validates_only_as_its_own_family(family):
    doc = produced(family)
    for other in FAMILIES:
        if other is not family:
            with pytest.raises(ValueError, match=f"invalid {re.escape(other.id)}"):
                schema.validate(doc, other)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.id)
def test_producer_output_round_trips_through_write_and_load(family, tmp_path):
    doc = produced(family)
    path = tmp_path / "doc.json"
    schema.write(doc, family, path)
    written = path.read_bytes()
    loaded = schema.load(path, family)
    assert loaded == doc
    schema.write(loaded, family, path)
    assert path.read_bytes() == written


@pytest.mark.parametrize("family, mutate, where, post_check", MUTATIONS)
def test_mutation_is_rejected(family, mutate, where, post_check):
    doc = produced(family)
    mutate(doc)
    with pytest.raises(ValueError) as excinfo:
        schema.validate(doc, family)
    assert where in str(excinfo.value)


@pytest.mark.parametrize("family, mutate, where, post_check", MUTATIONS)
def test_mutation_is_rejected_by_jsonschema(family, mutate, where, post_check):
    jsonschema = pytest.importorskip("jsonschema")
    doc = produced(family)
    mutate(doc)
    if post_check:
        # Beyond JSON Schema: the family post-check rejects it instead.
        jsonschema.validate(doc, family.spec)
    else:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, family.spec)


# ----------------------------------------------------------------------
# Committed fixtures
# ----------------------------------------------------------------------
FIXTURES = sorted((ROOT / "benchmarks").rglob("*.json"))


def test_fixtures_cover_the_committed_families():
    ids = {json.loads(path.read_text())["schema"] for path in FIXTURES}
    assert ids == {RUN_REPORT.id}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.name)
def test_committed_fixture_validates(path):
    doc = json.loads(path.read_text())
    schema.validate(doc, SCHEMAS[doc["schema"]])


# ----------------------------------------------------------------------
# The table and the interpreter
# ----------------------------------------------------------------------
@pytest.fixture
def table(monkeypatch):
    """A private family table, so test declarations never leak."""
    monkeypatch.setattr(schema, "SCHEMAS", {})


def _holder(spec):
    return Schema(
        "repro.demo/v1", {"type": "object", "properties": {"value": spec}}
    )


def test_registered_family_cannot_be_declared_again():
    with pytest.raises(ValueError, match="declared twice"):
        Schema(RUN_REPORT.id, {"type": "object"})


def test_duplicate_declaration_raises(table):
    Schema("repro.demo/v1", {"type": "object"})
    with pytest.raises(ValueError, match="declared twice"):
        Schema("repro.demo/v1", {"type": "object"})


def test_unsupported_keyword_raises_at_declaration(table):
    with pytest.raises(ValueError, match="minLength"):
        _holder({"type": "string", "minLength": 1})


def test_id_is_injected_as_a_required_const(table):
    family = Schema("repro.demo/v1", {"type": "object", "required": ["x"]})
    assert family.spec["$id"] == "repro.demo/v1"
    assert family.spec["required"] == ["schema", "x"]
    assert family.spec["properties"]["schema"] == {"const": "repro.demo/v1"}


def test_id_key_descends_into_nested_objects(table):
    nested = Schema(
        "repro.nested/v1",
        {
            "type": "object",
            "required": ["meta"],
            "properties": {"meta": {"type": "object"}},
        },
        key=("meta", "format"),
    )
    schema.validate({"meta": {"format": nested.id}}, nested)
    with pytest.raises(ValueError, match="meta: missing required key 'format'"):
        schema.validate({"meta": {}}, nested)


KEYWORDS = [
    ({"type": "integer"}, 3, True),
    ({"type": "integer"}, True, False),  # bool is not an integer
    ({"type": "integer"}, 3.0, False),
    ({"type": "number"}, 2.5, True),
    ({"type": "number"}, False, False),
    ({"type": ["string", "null"]}, None, True),
    ({"type": "array"}, (1, 2), False),
    ({"const": "a"}, "b", False),
    ({"enum": [1, 2]}, 3, False),
    ({"minimum": 0}, -1, False),
    ({"minimum": 0}, "text", True),  # numeric keywords skip non-numbers
    ({"maximum": 1}, 1, True),
    ({"maximum": 1}, 1.5, False),
    ({"exclusiveMinimum": 0}, 0, False),
    ({"minItems": 1}, [], False),
    ({"pattern": "^[0-9a-f]+$"}, "beef", True),
    ({"pattern": "^[0-9a-f]+$"}, "zz", False),
    ({"required": ["a"]}, {}, False),
    ({"required": ["a"]}, [], True),  # object keywords skip non-objects
    ({"properties": {"a": {"type": "string"}}}, {"a": 1}, False),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"b": 2}, False),
    ({"additionalProperties": {"type": "integer"}}, {"x": 1, "y": "2"}, False),
    ({"items": {"type": "integer"}}, [1, "2"], False),
]


@pytest.mark.parametrize("spec, value, valid", KEYWORDS)
def test_keyword_semantics(table, spec, value, valid):
    family = _holder(spec)
    doc = {"schema": family.id, "value": value}
    if valid:
        schema.validate(doc, family)
    else:
        with pytest.raises(ValueError, match="value"):
            schema.validate(doc, family)


def test_local_ref_resolves_against_the_root(table):
    family = Schema(
        "repro.demo/v1",
        {
            "type": "object",
            "properties": {"a": {"$ref": "#/definitions/count"}},
            "definitions": {"count": {"type": "integer", "minimum": 0}},
        },
    )
    schema.validate({"schema": family.id, "a": 1}, family)
    with pytest.raises(ValueError, match="a: -1 is below the minimum 0"):
        schema.validate({"schema": family.id, "a": -1}, family)


def test_errors_name_the_family_and_the_field_path(table):
    family = _holder({"type": "array", "items": {"required": ["k"]}})
    with pytest.raises(
        ValueError,
        match=r"invalid repro\.demo/v1: value\[1\]: missing required key 'k'",
    ):
        schema.validate({"schema": family.id, "value": [{"k": 1}, {}]}, family)


def test_post_check_runs_only_after_the_spec_passes(table):
    seen = []

    def check(doc, fail):
        seen.append(doc)
        fail("x", "post-check says no")

    family = Schema("repro.demo/v1", {"type": "object"}, check=check)
    with pytest.raises(ValueError, match="schema: expected"):
        schema.validate({"schema": "other"}, family)
    assert seen == []
    with pytest.raises(ValueError, match="x: post-check says no"):
        schema.validate({"schema": family.id}, family)
    assert len(seen) == 1


def test_write_is_canonical_and_load_round_trips(table, tmp_path):
    family = Schema("repro.demo/v1", {"type": "object"})
    doc = {"schema": family.id, "b": [1, 2], "a": {"z": 1, "y": 2}}
    path = tmp_path / "doc.json"
    schema.write(doc, family, path)
    assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert schema.load(path, family) == doc


def test_write_refuses_an_invalid_document(table, tmp_path):
    family = Schema("repro.demo/v1", {"type": "object"})
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        schema.write({"schema": "repro.demo/v0"}, family, path)
    assert not path.exists()


def test_load_of_a_missing_file_is_none(table, tmp_path):
    family = Schema("repro.demo/v1", {"type": "object"})
    assert schema.load(tmp_path / "absent.json", family) is None


# ----------------------------------------------------------------------
# The provenance block
# ----------------------------------------------------------------------
class TestProvenance:
    def test_block_shape(self, table):
        block = schema.provenance(
            argv=["sweep", "table5"], config_fingerprint="ab" * 32
        )
        assert set(block) == set(PROVENANCE["properties"])
        family = _holder(PROVENANCE)
        schema.validate({"schema": family.id, "value": block}, family)
        assert block["argv"] == ["sweep", "table5"]
        assert block["config_fingerprint"] == "ab" * 32
        assert isinstance(block["git_sha"], str) and block["git_sha"]
        assert isinstance(block["python"], str)
        assert isinstance(block["platform"], str)

    def test_defaults_to_process_argv(self):
        block = schema.provenance()
        assert isinstance(block["argv"], list)

    def test_argv_is_recorded_as_a_list_copy(self):
        argv = ["serve", "micro"]
        block = schema.provenance(argv=tuple(argv))
        assert block["argv"] == argv
        block = schema.provenance(argv=argv)
        argv.append("--json")
        assert block["argv"] == ["serve", "micro"]

    def test_git_is_asked_once_per_process(self, monkeypatch):
        calls = []
        run = schema.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(schema, "_git_cache", None)
        monkeypatch.setattr(schema.subprocess, "run", counting_run)
        first = schema.provenance()
        asked = len(calls)  # rev-parse, then status unless that failed
        assert asked in (1, 2)
        second = schema.provenance()
        assert len(calls) == asked
        assert first["git_sha"] == second["git_sha"]
        assert first["git_dirty"] == second["git_dirty"]

    def test_cached_git_fields_are_not_shared(self, monkeypatch):
        monkeypatch.setattr(schema, "_git_cache", None)
        block = schema.provenance()
        sha = block["git_sha"]
        block["git_sha"] = "edited"
        assert schema.provenance()["git_sha"] == sha

    def test_git_failure_falls_back_without_failing_the_run(
        self, monkeypatch, table
    ):
        def no_git(*args, **kwargs):
            raise OSError("git: command not found")

        monkeypatch.setattr(schema, "_git_cache", None)
        monkeypatch.setattr(schema.subprocess, "run", no_git)
        block = schema.provenance(argv=["table4"])
        assert block["git_sha"] == "unknown"
        assert block["git_dirty"] is None
        family = _holder(PROVENANCE)
        schema.validate({"schema": family.id, "value": block}, family)

    @pytest.mark.parametrize(
        "family, path",
        [
            pytest.param(family, path, id=family.id)
            for family, path in [
                (RUN_REPORT, ("provenance",)),
                (SWEEP_REPORT, ("provenance",)),
                (MEMSIM_REPORT, ("provenance",)),
            ]
        ],
    )
    def test_every_report_stamps_the_one_block(self, family, path):
        block = produced(family)
        for part in path:
            block = block[part]
        expected = schema.provenance()
        assert set(block) == set(PROVENANCE["properties"])
        for key in ("git_sha", "python", "numpy", "platform"):
            assert block[key] == expected[key]
