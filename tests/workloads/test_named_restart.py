"""Named opaque predicates warm-start from the disk tier in a fresh interpreter.

The ER-loop shape of the artifact store's acceptance criterion: a
:func:`~repro.workloads.scripts.named_screen_workload` (opaque
``FunctionPredicate`` bins with declared ``(name, version)`` identities)
previews cold with a store attached, then a brand-new interpreter
(``python -m repro.workloads.worker --probe warm-start``) re-creates the
predicates from their identities and answers the same preview from disk:
zero translation builds, zero Monte-Carlo searches, bit-identical costs.
``tests/queries/test_predicate_identity.py`` pins the same tier with an
in-process restart; only a fresh interpreter proves that nothing but the
declared identity carries across.
"""

import json
import os
import subprocess
import sys

import repro
from repro.mechanisms.strategy_mechanism import reset_search_stats
from repro.queries.workload import clear_matrix_cache
from repro.workloads import GeneratorConfig
from repro.workloads.worker import run_named_warm_start

CONFIG = GeneratorConfig(seed=17, initial_rows=600, periods=1, rows_per_period=1)
N_SCREENS = 6
MC_SAMPLES = 120


def run_worker(store_dir: str) -> dict:
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.workloads.worker",
            "--probe",
            "warm-start",
            "--store",
            store_dir,
            "--config-json",
            json.dumps(CONFIG.to_json()),
            "--screens",
            str(N_SCREENS),
            "--mc-samples",
            str(MC_SAMPLES),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class TestNamedRestartAcrossProcesses:
    def test_fresh_interpreter_rebuilds_nothing_and_matches_bitwise(self, tmp_path):
        clear_matrix_cache()
        reset_search_stats()
        store_dir = str(tmp_path / "store")
        cold = run_named_warm_start(
            store_dir, CONFIG, n_screens=N_SCREENS, mc_samples=MC_SAMPLES
        )
        assert cold["translation_builds"] == 1
        assert cold["mc_searches"] >= 1

        warm = run_worker(store_dir)
        assert warm["translation_builds"] == 0
        assert warm["mc_searches"] == 0
        assert warm["translation_disk_hits"] >= 1
        # JSON round-trips floats exactly: this is bit-identity.
        assert warm["costs"] == json.loads(json.dumps(cold["costs"]))
