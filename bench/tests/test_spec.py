"""``BENCHMARK.json`` is well formed and names exactly what the runs emit."""

import json
import re

import layers
import run
import worker
from test_workloads import SmallClient
from workloads import WORKLOADS

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer metrics computed by the runner rather than from one span name.
RUNNER_METRICS = {"trace.overhead_frac", "trace.coverage_frac", "output.precision_bits"}
#: Work counts the tracer's counters add (see layers.py).
COUNTED = {
    "kernels.ntt.limb_passes", "kernels.ntt.bytes_computed",
    "kernels.plan_cache.hit_ratio", "ring.pointwise.limb_ops",
    "sweep.points", "sweep.memo.hit_ratio",
}


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_metric_entries():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher") and UNIT.match(m["unit"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def test_untraced_run_emits_exactly_the_end_to_end_metrics():
    result = worker.run_untraced(SmallClient, 0, 0.0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_run_emits_exactly_the_per_layer_metrics():
    names = [m["name"] for m in SPEC["per_layer"]]
    result = worker.run_traced(SmallClient, 0, names, None)
    assert list(result["metrics"]) == names


def test_every_per_layer_metric_has_a_source():
    spans = {name for _, _, name, _ in layers._targets()} | {layers.ROOT}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in RUNNER_METRICS or name in COUNTED:
            continue
        base, _, suffix = name.rpartition(".")
        assert suffix in ("calls", "self_s", "incl_s"), name
        assert base in spans, name
