"""The property-based history exerciser over a bounded seed set.

Each seed derives a full random scenario (ops, crash plan, optional torn
tail) and checks every recovery invariant; a failure message carries the
whole report so the scenario can be replayed from its seed.  CI runs the
same seeds as a named gate.
"""

import json

import pytest

from repro.reliability.exerciser import CRASH_SITES, generate_script, run_history

SEEDS = [2, 3, 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_history_invariants_hold(seed, tmp_path):
    report = run_history(
        seed,
        work_dir=str(tmp_path / f"seed-{seed}"),
        n_ops=6,
        n_rows=300,
        mc_samples=120,
    )
    assert report["ok"], json.dumps(report, indent=2, default=str)


def test_generated_scripts_are_reproducible():
    import random

    a = generate_script(random.Random(7), 20)
    b = generate_script(random.Random(7), 20)
    assert a == b
    ops = {op["op"] for op in a}
    assert "explore" in ops  # the generator must actually explore


def test_crash_sites_are_registered():
    from repro.reliability.faults import FAILPOINT_SITES

    for site in CRASH_SITES:
        assert site in FAILPOINT_SITES
