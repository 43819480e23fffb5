"""The microsimulation generator: schedules, validity, determinism."""

import pytest

from repro.core.exceptions import ApexError
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.population import (
    OCCUPATION_CODES,
    REGION_CODES,
    SEEDED_OCCUPATIONS,
    SEEDED_REGIONS,
    generate_stream,
    population_schema,
    unobserved_code_pool,
)


def small_config(**overrides) -> GeneratorConfig:
    base = dict(
        seed=13, initial_rows=400, periods=6, rows_per_period=120, drift_every=2
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestConfig:
    def test_rejects_unknown_drift_mode(self):
        with pytest.raises(ApexError):
            GeneratorConfig(drift="chaos")

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ApexError):
            GeneratorConfig(periods=0)
        with pytest.raises(ApexError):
            GeneratorConfig(rows_per_period=-1)

    def test_json_round_trip(self):
        config = small_config(drift="mixed")
        assert GeneratorConfig.from_json(config.to_json()) == config

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ApexError):
            GeneratorConfig.from_json({"seed": 1, "mystery": True})

    def test_preserve_schedule_is_all_false(self):
        config = small_config(drift="preserve")
        assert config.drift_schedule() == (False,) * 6
        assert config.drift_plan() == ()

    def test_drift_schedule_follows_drift_every(self):
        config = small_config(drift="drift", drift_every=2)
        assert config.drift_schedule() == (False, True, False, True, False, True)
        plan = config.drift_plan()
        assert [event.period for event in plan] == [2, 4, 6]
        # The pool alternates attributes, region first.
        assert [event.attribute for event in plan] == [
            "region",
            "occupation",
            "region",
        ]

    def test_schedule_exhausts_with_the_code_pool(self):
        pool_size = len(unobserved_code_pool())
        config = GeneratorConfig(
            initial_rows=50,
            rows_per_period=30,
            periods=2 * (pool_size + 5),
            drift="drift",
            drift_every=1,
        )
        schedule = config.drift_schedule()
        assert sum(schedule) == pool_size
        assert not any(schedule[pool_size:])

    def test_widening_only_in_mixed_mode(self):
        assert not any(small_config(drift="drift").widening_schedule())
        mixed = small_config(drift="mixed")
        widening = mixed.widening_schedule()
        drifting = mixed.drift_schedule()
        assert all(w != d for w, d in zip(widening, drifting))


class TestGenerator:
    def test_batches_match_the_declared_schedule(self):
        for mode in ("preserve", "drift", "mixed"):
            config = small_config(drift=mode)
            _, batches = generate_stream(config)
            assert tuple(b.changes_fingerprint for b in batches) == (
                config.drift_schedule()
            )
            assert tuple(b.widened for b in batches) == config.widening_schedule()

    def test_every_row_is_schema_valid(self):
        schema = population_schema()
        initial, batches = generate_stream(small_config(drift="mixed"))
        for row in initial[:50]:
            assert schema.validate_row(row) == []
        for batch in batches:
            for row in batch.rows[:25]:
                assert schema.validate_row(row) == []

    def test_batch_sizes_hit_the_target(self):
        config = small_config()
        _, batches = generate_stream(config)
        assert all(len(b.rows) == config.rows_per_period for b in batches)

    def test_preserve_mode_never_leaves_the_seeded_domains(self):
        initial, batches = generate_stream(small_config(drift="preserve"))
        seeded_regions = set(REGION_CODES[:SEEDED_REGIONS])
        seeded_occupations = set(OCCUPATION_CODES[:SEEDED_OCCUPATIONS])
        for batch in batches:
            assert batch.introduces == {}
            assert {row["region"] for row in batch.rows} <= seeded_regions
            assert {row["occupation"] for row in batch.rows} <= seeded_occupations

    def test_drift_batches_introduce_exactly_the_planned_code(self):
        config = small_config(drift="drift")
        plan = {event.period: event for event in config.drift_plan()}
        _, batches = generate_stream(config)
        observed_regions = set(REGION_CODES[:SEEDED_REGIONS])
        for batch in batches:
            event = plan.get(batch.period)
            if event is None:
                assert batch.introduces == {}
                continue
            assert dict(batch.introduces) == {event.attribute: (event.value,)}
            # The new code really appears in the emitted rows of this batch.
            assert any(row[event.attribute] == event.value for row in batch.rows)
            if event.attribute == "region":
                observed_regions.add(event.value)
            # And nothing else drifted: regions stay within observed-so-far.
            assert {row["region"] for row in batch.rows} <= observed_regions

    def test_same_config_is_bit_identical_in_process(self):
        config = small_config(drift="mixed")
        first = generate_stream(config)
        second = generate_stream(config)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seeds_differ(self):
        a, _ = generate_stream(small_config(seed=1))
        b, _ = generate_stream(small_config(seed=2))
        assert a != b

    def test_build_table_matches_initial_rows(self):
        generator = MicrosimulationGenerator(small_config())
        table = generator.build_table()
        rows = generator.initial_rows()
        assert len(table) == len(rows)
        assert table.column("region")[0] == rows[0]["region"]
        assert float(table.column("income")[0]) == rows[0]["income"]
