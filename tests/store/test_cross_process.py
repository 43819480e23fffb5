"""Cross-process sharing: a fresh interpreter warm-starts from the store.

The acceptance criterion of the subsystem, pinned as a test: a
restarted process -- fresh interpreter, ``store=`` pointing at the prior
run's directory -- answers a structurally identical ``preview_cost`` with
**zero** matrix rebuilds and **zero** Monte-Carlo re-searches, bit-identical
to the cold result.  The store holds translation lists only, so a restart
asked a new ``(alpha, beta)`` rebuilds the matrix once, in memory.  A
restarted ``explore`` releases on the loaded translation, so it runs no
Monte-Carlo search either.
"""

import json
import os
import subprocess
import sys

import repro
from repro.bench.fixtures import build_bench_table, build_bench_workload
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.data.adult import generate_adult
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.builders import prefix_workload
from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery
from repro.queries.workload import clear_matrix_cache
from repro.store import ArtifactStore

N_ROWS = 2_000
N_PREDICATES = 8
N_AMOUNT_CUTS = 4
MC_SAMPLES = 200
SEED = 20190501
ADULT_ROWS = 5_000
STRATEGY_ACCURACY = AccuracySpec(alpha=0.08 * ADULT_ROWS, beta=5e-4)


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, repo_root, env.get("PYTHONPATH", "")]
    )
    return env


def adult_engine(store_dir: str) -> APExEngine:
    """An engine over the 5,000-row synthetic Adult table with a fresh
    registry, attached to the store at ``store_dir``."""
    return APExEngine(
        generate_adult(n_rows=ADULT_ROWS, seed=42),
        budget=10.0,
        registry=default_registry(mc_samples=MC_SAMPLES),
        seed=7,
        store=ArtifactStore(store_dir),
    )


def strategy_queries() -> list[tuple[str, object]]:
    """``(expected mechanism, query)`` pairs a strategy mechanism wins: the
    20-cut ``capital_gain`` prefix WCQ, and Table 1's QI1."""
    return [
        (
            "WCQ-SM",
            WorkloadCountingQuery(
                prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
                name="prefix-20",
            ),
        ),
        (
            "ICQ-SM",
            IcebergCountingQuery(
                prefix_workload("capital_gain", [50.0 * i for i in range(1, 101)]),
                threshold=0.1 * ADULT_ROWS,
                name="QI1",
            ),
        ),
    ]


def fill_store(store_dir: str) -> None:
    """Translate every :func:`strategy_queries` query into the store (run in
    a child process)."""
    engine = adult_engine(store_dir)
    for _, query in strategy_queries():
        engine.preview_cost(query, STRATEGY_ACCURACY)


def run_worker(store_dir: str) -> dict:
    env = child_env()
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench.store_worker",
            "--store",
            store_dir,
            "--rows",
            str(N_ROWS),
            "--predicates",
            str(N_PREDICATES),
            "--amount-cuts",
            str(N_AMOUNT_CUTS),
            "--mc-samples",
            str(MC_SAMPLES),
            "--seed",
            str(SEED),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class TestWarmStartAcrossProcesses:
    def test_restarted_process_rebuilds_nothing_and_matches_bitwise(self, tmp_path):
        clear_matrix_cache()
        store_dir = str(tmp_path / "store")
        table = build_bench_table(N_ROWS, seed=SEED)
        workload = build_bench_workload(N_PREDICATES, n_amount_cuts=N_AMOUNT_CUTS)
        engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=7,
            store=ArtifactStore(store_dir),
        )
        accuracy = AccuracySpec(alpha=0.05 * N_ROWS, beta=5e-4)
        cold = engine.preview_cost(
            WorkloadCountingQuery(workload, name="bench-wcq"), accuracy
        )

        worker = run_worker(store_dir)
        assert worker["matrix_builds"] == 0
        assert worker["mc_searches"] == 0
        assert worker["translation_builds"] == 0
        assert worker["translation_disk_hits"] >= 1
        # JSON round-trips floats exactly: this is bit-identity.
        cold_json = json.loads(
            json.dumps({name: list(pair) for name, pair in cold.items()})
        )
        assert worker["costs"] == cold_json

    def test_restart_asking_a_new_alpha_builds_once_and_persists_no_matrix(
        self, tmp_path
    ):
        """Only translation lists persist: a restarted process asked an
        (alpha, beta) the store has no translation for rebuilds the matrix
        and the translation once each, exactly as a one-process cold run."""
        clear_matrix_cache()
        store_dir = str(tmp_path / "store")
        table = build_bench_table(N_ROWS, seed=SEED)
        workload = build_bench_workload(N_PREDICATES, n_amount_cuts=N_AMOUNT_CUTS)
        engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=7,
            store=ArtifactStore(store_dir),
        )
        # The store holds this workload's translation for another alpha.
        engine.preview_cost(
            WorkloadCountingQuery(workload, name="bench-wcq"),
            AccuracySpec(alpha=0.08 * N_ROWS, beta=5e-4),
        )

        worker = run_worker(store_dir)
        assert worker["matrix_builds"] == 1
        assert worker["translation_builds"] == 1
        assert worker["translation_disk_hits"] == 0
        assert worker["mc_searches"] == 1
        assert os.path.isdir(os.path.join(store_dir, "translation"))
        assert not os.path.exists(os.path.join(store_dir, "matrix"))

        clear_matrix_cache()
        cold = APExEngine(
            build_bench_table(N_ROWS, seed=SEED),
            budget=10.0,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=7,
        ).preview_cost(
            WorkloadCountingQuery(workload, name="bench-wcq"),
            AccuracySpec(alpha=0.05 * N_ROWS, beta=5e-4),
        )
        cold_json = json.loads(
            json.dumps({name: list(pair) for name, pair in cold.items()})
        )
        assert worker["costs"] == cold_json

    def test_subprocess_writes_are_readable_by_the_parent(self, tmp_path):
        """The sharing works in the other direction too: a child process
        populates an empty store, then the parent warm-starts from it."""
        clear_matrix_cache()
        store_dir = str(tmp_path / "store")
        worker = run_worker(store_dir)  # cold in the child: builds + persists
        assert worker["matrix_builds"] >= 1

        clear_matrix_cache()
        reset_search_stats()
        table = build_bench_table(N_ROWS, seed=SEED)
        workload = build_bench_workload(N_PREDICATES, n_amount_cuts=N_AMOUNT_CUTS)
        engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=7,
            store=ArtifactStore(store_dir),
        )
        accuracy = AccuracySpec(alpha=0.05 * N_ROWS, beta=5e-4)
        warm = engine.preview_cost(
            WorkloadCountingQuery(workload, name="bench-wcq"), accuracy
        )
        stats = engine.cache_stats()
        assert stats["workload_matrices"]["built"] == 0
        assert search_stats()["searches"] == 0
        warm_json = json.loads(
            json.dumps({name: list(pair) for name, pair in warm.items()})
        )
        assert warm_json == worker["costs"]


class TestRestartedExplore:
    def test_restarted_process_explores_with_zero_searches(self, tmp_path):
        """A restarted ``explore`` releases on the translation loaded from
        the store: the strategy mechanisms win and no search runs."""
        store_dir = str(tmp_path / "store")
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from tests.store.test_cross_process import fill_store; "
                "fill_store(sys.argv[1])",
                store_dir,
            ],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr

        clear_matrix_cache()
        reset_search_stats()
        engine = adult_engine(store_dir)
        for mechanism, query in strategy_queries():
            result = engine.explore(query, STRATEGY_ACCURACY)
            assert result.mechanism == mechanism
        assert engine.cache_stats()["translations"]["disk_hits"] == 2
        assert search_stats()["searches"] == 0
