"""SweepSpec/SweepAxis: canonical order and identity."""

import itertools
from dataclasses import dataclass

import pytest

from repro.params import BASELINE_JUNG, MAD_OPTIMAL
from repro.perf import MADConfig
from repro.sweep import SweepAxis, SweepSpec, value_key


@dataclass(frozen=True)
class Coord:
    x: int
    y: str


class TestValueKey:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "abc"):
            assert value_key(value) == value

    def test_dataclass_becomes_name_and_fields(self):
        assert value_key(Coord(1, "a")) == ["Coord", {"x": 1, "y": "a"}]

    def test_real_domain_dataclasses(self):
        key = value_key(BASELINE_JUNG)
        assert key[0] == "CkksParams"
        assert key[1]["log_n"] == 17
        assert value_key(MADConfig.all())[0] == "MADConfig"

    def test_sequences_and_mappings_recurse(self):
        assert value_key((1, [2, Coord(3, "z")])) == [1, [2, ["Coord", {"x": 3, "y": "z"}]]]
        assert value_key({"b": 2, "a": 1}) == {"a": 1, "b": 2}

    def test_distinct_values_distinct_keys(self):
        assert value_key(BASELINE_JUNG) != value_key(MAD_OPTIMAL)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="canonical key"):
            value_key({1, 2, 3})


class TestSweepAxis:
    def test_coerces_sequence_to_tuple(self):
        axis = SweepAxis("cache_mb", [1.0, 2.0])
        assert axis.values == (1.0, 2.0)

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("cache_mb", ())

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepAxis("", (1,))


def _spec():
    return SweepSpec(
        name="toy",
        evaluator="test.echo",
        axes=(
            SweepAxis("a", (1, 2, 3)),
            SweepAxis("b", ("x", "y")),
        ),
        context={"k": 7},
    )


class TestSweepSpec:
    def test_size_is_grid_product(self):
        assert _spec().size == 6

    def test_points_follow_serial_nesting_order(self):
        """Canonical order == itertools.product over axes in declaration
        order, last axis fastest — exactly a nested for loop."""
        spec = _spec()
        expected = [
            {"a": a, "b": b} for a, b in itertools.product((1, 2, 3), ("x", "y"))
        ]
        points = list(spec.points())
        assert [index for index, _ in points] == list(range(6))
        assert [point for _, point in points] == expected

    def test_point_key_uses_axis_order(self):
        spec = _spec()
        assert spec.point_key({"b": "y", "a": 2}) == {"a": 2, "b": "y"}

    def test_rejects_duplicate_axis_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(
                name="dup",
                evaluator="test.echo",
                axes=(SweepAxis("a", (1,)), SweepAxis("a", (2,))),
            )

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec(name="none", evaluator="test.echo", axes=())

    def test_fingerprint_is_stable(self):
        assert _spec().fingerprint() == _spec().fingerprint()
        assert len(_spec().fingerprint()) == 64

    def test_fingerprint_sees_every_identity_field(self):
        base = _spec().fingerprint()
        renamed = SweepSpec(
            name="other", evaluator="test.echo", axes=_spec().axes, context={"k": 7}
        )
        recontexted = SweepSpec(
            name="toy", evaluator="test.echo", axes=_spec().axes, context={"k": 8}
        )
        reordered = SweepSpec(
            name="toy", evaluator="test.echo", axes=tuple(reversed(_spec().axes)),
            context={"k": 7},
        )
        assert len({base, renamed.fingerprint(), recontexted.fingerprint(),
                    reordered.fingerprint()}) == 4
