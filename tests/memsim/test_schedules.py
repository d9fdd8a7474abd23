"""Schedule generators: simulated traffic == analytical claims.

The load-bearing invariant of the whole package: for every primitive and
every Fig. 2 rung, replaying the generated trace through the pin-aware
policy at a capacity where the rung's working set genuinely fits must
reproduce the analytical per-stream DRAM bytes *bit-exactly* — the
schedules encode the same access structure the formulas count.
"""

import pytest

from repro.memsim.policies import make_policy
from repro.memsim.schedules import PRIMITIVES, ScheduleBuilder
from repro.memsim.simulator import MemorySimulator
from repro.params import BASELINE_JUNG, MAD_OPTIMAL
from repro.perf.bootstrap import BootstrapModel, bootstrap_plan, dft_diagonals
from repro.perf.optimizations import ALGORITHMIC_LADDER, CACHING_LADDER

#: Large enough for every rung's working set (rung 5 needs ~176 MB).
HUGE_MB = 1024.0
MB = 10**6

RUNG_IDS = [label for label, _ in CACHING_LADDER]


def replay(schedule, cache_mb=HUGE_MB, policy="pin"):
    simulator = MemorySimulator(int(cache_mb * MB), make_policy(policy))
    return simulator.replay(schedule.trace)


def assert_exact(schedule, cache_mb=HUGE_MB):
    result = replay(schedule, cache_mb)
    assert result.traffic == schedule.analytical.traffic, (
        f"{schedule.label}: simulated {result.traffic} != "
        f"analytical {schedule.analytical.traffic}"
    )


@pytest.mark.parametrize(
    "config", [c for _, c in CACHING_LADDER], ids=RUNG_IDS
)
@pytest.mark.parametrize(
    "name",
    [
        "decomp",
        "mod_up",
        "ksk_inner_product",
        "mod_down",
        "key_switch",
        "mult",
        "rotate",
        "rescale",
        "pt_mult",
        "add",
        "automorph",
    ],
)
class TestPrimitiveExactness:
    def test_simulated_equals_analytical_when_fitting(self, name, config):
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        schedule = getattr(builder, name)(BASELINE_JUNG.max_limbs)
        assert_exact(schedule)


@pytest.mark.parametrize(
    "config", [c for _, c in CACHING_LADDER], ids=RUNG_IDS
)
class TestMatVecExactness:
    def test_pt_mat_vec_mult_exact_when_fitting(self, config):
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        schedule = builder.pt_mat_vec_mult(
            BASELINE_JUNG.max_limbs, dft_diagonals(BASELINE_JUNG)
        )
        assert_exact(schedule)


class TestAlgorithmicConfigs:
    """The 'all' config (merge + hoist + compression) must also replay exact."""

    @pytest.mark.parametrize("name", ["mult", "rotate", "key_switch"])
    def test_all_config_primitives(self, name):
        _, config = ALGORITHMIC_LADDER[-1]
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        assert_exact(getattr(builder, name)(BASELINE_JUNG.max_limbs))

    def test_all_config_matvec_uses_hoisting(self):
        _, config = ALGORITHMIC_LADDER[-1]
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        schedule = builder.pt_mat_vec_mult(
            BASELINE_JUNG.max_limbs, dft_diagonals(BASELINE_JUNG)
        )
        assert_exact(schedule)

    def test_optimal_params_mult_exact(self):
        _, config = ALGORITHMIC_LADDER[-1]
        builder = ScheduleBuilder(MAD_OPTIMAL, config)
        assert_exact(builder.mult(MAD_OPTIMAL.max_limbs))


class TestModRaise:
    @pytest.mark.parametrize(
        "config", [c for _, c in CACHING_LADDER], ids=RUNG_IDS
    )
    def test_mod_raise_exact(self, config):
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        assert_exact(builder.mod_raise(2, BASELINE_JUNG.max_limbs))


class TestBootstrapUnits:
    @pytest.mark.parametrize(
        "config", [c for _, c in CACHING_LADDER], ids=RUNG_IDS
    )
    def test_unit_analytical_sum_matches_bootstrap_ledger(self, config):
        """The schedule walk must mirror BootstrapModel.ledger() exactly:
        one unit per plan step, with the step's op, phase and count."""
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        units = builder.bootstrap_units()
        assert [(unit.label, unit.phase, unit.scale) for unit in units] == [
            (step.op, step.phase, step.count)
            for step in bootstrap_plan(BASELINE_JUNG)
        ]
        total = sum(
            (unit.analytical.scaled(unit.scale) for unit in units),
            start=type(units[0].analytical)(),
        )
        ledger_total = BootstrapModel(BASELINE_JUNG, config).ledger().total
        assert total.traffic == ledger_total.traffic

    def test_units_replay_exact_at_huge_cache(self):
        # One rung suffices here; the full sweep runs in the validation
        # harness (tests/memsim/test_validate.py + benchmarks).
        _, config = CACHING_LADDER[-1]
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        for unit in builder.bootstrap_units():
            result = replay(unit)
            assert result.traffic == unit.analytical.traffic, unit.label

    def test_units_cover_all_phases(self):
        _, config = CACHING_LADDER[0]
        phases = {
            unit.phase
            for unit in ScheduleBuilder(BASELINE_JUNG, config).bootstrap_units()
        }
        assert phases == {"ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff"}


class TestRegistryAndDeterminism:
    def test_primitives_registry_builds_every_schedule(self):
        _, config = CACHING_LADDER[-1]
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        for name in PRIMITIVES:
            schedule = getattr(builder, name)(BASELINE_JUNG.max_limbs)
            assert schedule.label
            assert len(schedule.trace.events) > 0, name

    def test_schedule_generation_is_bit_identical(self):
        _, config = CACHING_LADDER[-1]

        def events():
            builder = ScheduleBuilder(BASELINE_JUNG, config)
            return builder.mult(BASELINE_JUNG.max_limbs).trace.events

        assert events() == events()

    def test_level_dependence_monotone(self):
        """Lower levels move fewer bytes (sanity vs the analytical model)."""
        _, config = CACHING_LADDER[-1]
        builder = ScheduleBuilder(BASELINE_JUNG, config)
        high = replay(builder.mult(BASELINE_JUNG.max_limbs)).traffic.total
        low = replay(builder.mult(10)).traffic.total
        assert low < high
