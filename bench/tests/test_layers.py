"""Self-time arithmetic and the tracer's patching."""

import pytest

import layers
from layers import Tracer, call_trees, coverage, per_op_totals, self_time_residual


def _spans():
    # op "a": root [0, 10] > x [1, 7] > y [2, 5] > x [3, 4]; root > y [8, 9]
    return [
        ["other", 0.0, 10.0, -1, "a"],
        ["x", 1.0, 7.0, 0, "a"],
        ["y", 2.0, 5.0, 1, "a"],
        ["x", 3.0, 4.0, 2, "a"],
        ["y", 8.0, 9.0, 0, "a"],
    ]


def test_self_time_subtracts_children():
    row = per_op_totals(_spans())["a"]
    assert row["wall_s"] == 10.0
    assert row["other.self_s"] == pytest.approx(10 - 6 - 1)
    assert row["x.self_s"] == pytest.approx((6 - 3) + 1)
    assert row["y.self_s"] == pytest.approx((3 - 1) + 1)
    assert row["x.calls"] == 2 and row["y.calls"] == 2
    assert self_time_residual(row) == pytest.approx(0.0)
    assert coverage(row) == pytest.approx(0.7)


def test_inclusive_time_counts_outermost_span_only():
    row = per_op_totals(_spans())["a"]
    assert row["x.incl_s"] == 6.0  # the nested x [3, 4] is inside x [1, 7]
    assert row["y.incl_s"] == 4.0  # two disjoint y spans


def test_call_tree_folds_paths():
    tree = call_trees(_spans())["a"]
    assert tree["other;x;y;x"] == [1, 1.0, 1.0]
    assert tree["other;y"] == [1, 1.0, 1.0]
    assert tree["other"][2] == pytest.approx(3.0)


def test_counts_are_merged_per_op():
    row = per_op_totals(_spans(), {"a": {"sweep.points": 7}})["a"]
    assert row["sweep.points"] == 7


def test_every_target_resolves_and_is_restored():
    from repro.ring import RnsPolynomial
    import repro.ring.conversion as conversion

    add, mod_down = RnsPolynomial.__add__, conversion.mod_down
    from_int = RnsPolynomial.__dict__["from_int_coeffs"]
    tracer = Tracer()
    with tracer.tracing("op"):
        assert RnsPolynomial.__add__ is not add
        assert conversion.mod_down is not mod_down
    assert RnsPolynomial.__add__ is add
    assert conversion.mod_down is mod_down
    assert RnsPolynomial.__dict__["from_int_coeffs"] is from_int


def test_calls_outside_an_op_are_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        from repro.search import bootstrap_throughput

        bootstrap_throughput(8, 100, 20, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_traced_ring_op_adds_up():
    from repro.ckks import CkksContext, Encryptor, KeyGenerator
    from repro.params import toy_params

    ctx = CkksContext(toy_params(log_n=4, log_q=29, max_limbs=3), seed=1)
    keygen = KeyGenerator(ctx)
    enc = Encryptor(ctx, secret_key=keygen.secret_key)
    tracer = Tracer()
    with tracer.tracing("op"):
        enc.encrypt_values([0.5] * ctx.slots)
    row = tracer.per_op()["op"]
    assert row["ckks.encrypt.calls"] == 1
    assert row["ring.pointwise.calls"] > 0
    assert row["kernels.ntt.limb_passes"] > 0
    assert self_time_residual(row) < 1e-9


def test_layer_metrics_reads_keygen_from_setup():
    ops = [{"ring.pointwise.calls": 3.0}, {"ring.pointwise.calls": 5.0}]
    setup = {"ckks.keygen.calls": 42.0}
    out = layers.layer_metrics(ops, setup, ["ring.pointwise.calls", "ckks.keygen.calls"])
    assert out == {"ring.pointwise.calls": 4.0, "ckks.keygen.calls": 42.0}
