"""One round of an end-to-end workload, measured in a fresh interpreter.

``run.py`` spawns this script once per round; it is not meant to be run by
hand, but can be::

    PYTHONPATH=src python benchmarks/e2e/rounds.py --workload cold_translate \\
        --seed 1 --round 0 --seconds 4 --work-dir /tmp/w --out /tmp/r.json

The round builds its inputs from ``[seed, round]``, sets up (timed as
``setup``), runs the timed phase in blocks bracketed by the reference
kernel, checks every answer after each block, and writes one JSON record:
raw per-request samples per block, the reference series, operation and
quality totals, check outcomes, layer counters and -- with ``--trace 1`` --
the per-layer self-time tables.  ``--prime`` instead fills the artifact
store that ``warm_replay`` rounds restart over.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

import numpy as np

from measure import Block, BlockTimer, ReferenceKernel
from checks import AnswerChecker, transcript_problems
from layers import LayerTable, layer_wrappers

import repro
from repro.bench.queries import build_benchmark
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.data.citations import generate_citation_pairs, pairs_to_table
from repro.er.cleaner import CleanerModel
from repro.er.predicates import SimilarityCache
from repro.er.strategies import (
    ER_ATTRIBUTE_PAIRS,
    BlockingStrategyICQ,
    BlockingStrategyWCQ,
    MatchingStrategyICQ,
    MatchingStrategyWCQ,
)
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import search_stats
from repro.obs import tracing
from repro.obs.export import write_chrome_trace
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.parser import parse_query
from repro.queries.query import (
    IcebergCountingQuery,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from repro.queries.workload import matrix_cache_stats
from repro.reliability.journal import LedgerJournal
from repro.service import ExplorationService
from repro.store import ArtifactStore
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.scripts import query_templates

WORKLOADS = ("cold_translate", "warm_replay", "append_stream", "er_clean")

BETA = 5e-4
#: The owner budget of the service workloads: large enough that no request
#: is ever denied, so every denial there is a failure.
SERVICE_BUDGET = 1e4
ER_BUDGET = 1.0
ER_ALPHA_FRACTION = 0.08
WARM_ALPHA_FRACTION = 0.08
COLD_ALPHA_FRACTIONS = (0.04, 0.08, 0.16)
COLD_BINS = (8, 47)
ANALYST_THREADS = 2
#: The Table 1 queries warm_replay replays.
WARM_QUERIES = 12
ER_STRATEGIES = (
    ("BS1", BlockingStrategyWCQ),
    ("BS2", BlockingStrategyICQ),
    ("MS1", MatchingStrategyWCQ),
    ("MS2", MatchingStrategyICQ),
)

# Nominal CPU seconds of one unit of timed work, measured at REF_NOMINAL_S
# host speed; they turn a round's seconds budget into a fixed amount of work.
COLD_STRUCTURE_S = 0.20
WARM_REQUEST_S = 0.0011
APPEND_PERIOD_S = 0.075
ER_RUN_S = 0.007
#: Blocks are short -- one cold request, one append period, or about this
# much ER or warm_replay work -- because brackets close together track the
# host's speed far better than brackets seconds apart.
ER_BLOCK_S = 0.1
WARM_BLOCK_S = 0.25
#: Finished traces the tracer keeps until the next drain (after every
#: block); a block holds far fewer requests than this.
TRACE_RING = 1 << 16
#: How long an analyst thread waits for the others; a run is killed long before.
BARRIER_TIMEOUT_S = 600


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    adult_rows: int
    nytaxi_rows: int
    mc_samples: int
    cold_structures: int
    warm_requests: int
    warm_block_requests: int
    append_initial_rows: int
    append_rows_per_period: int
    append_periods: int
    er_pairs: int
    er_runs: int
    er_block_runs: int


def size_for(seconds: float, smoke: bool) -> Size:
    """The work of one round whose timed phase lasts ``seconds`` at nominal speed."""
    if smoke:
        return Size(
            adult_rows=2_000, nytaxi_rows=4_000, mc_samples=400,
            cold_structures=5, warm_requests=48, warm_block_requests=24,
            append_initial_rows=3_000, append_rows_per_period=300, append_periods=4,
            er_pairs=300, er_runs=1, er_block_runs=2,
        )
    warm_mixes = max(1, round(seconds / WARM_REQUEST_S / ANALYST_THREADS / (2 * WARM_QUERIES)))
    return Size(
        adult_rows=32_561, nytaxi_rows=200_000, mc_samples=10_000,
        cold_structures=5 * max(1, round(seconds / COLD_STRUCTURE_S / 5)),
        warm_requests=2 * WARM_QUERIES * warm_mixes,
        warm_block_requests=round(WARM_BLOCK_S / WARM_REQUEST_S / ANALYST_THREADS),
        append_initial_rows=100_000, append_rows_per_period=4_000,
        append_periods=max(3, round(seconds / APPEND_PERIOD_S)),
        er_pairs=2_000,
        er_runs=max(1, round(seconds / ER_RUN_S / len(ER_STRATEGIES))),
        er_block_runs=math.ceil(ER_BLOCK_S / ER_RUN_S),
    )


def derived_seed(*entropy: int) -> int:
    """A 32-bit seed derived from ``entropy`` (stable across processes)."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _answer_text(answer) -> str:
    if answer is None:
        return "denied"
    if isinstance(answer, np.ndarray):
        return repr([float(value) for value in answer])
    return repr(sorted(answer))


class _Failed(Exception):
    """Raised inside an ER run after its failed request was already counted."""


class Round:
    """Shared machinery: timed operations, deferred checks, totals, tracing."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.size = size_for(args.seconds, args.smoke)
        self.work_dir = args.work_dir
        self.kernel = ReferenceKernel()
        self.checker = AnswerChecker()
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.denied_expected = 0
        self.explores = 0
        self.errors: list[str] = []
        # Summed with math.fsum at the end: threads finish in any order,
        # and the exact metrics must not depend on it.
        self.eps: list[float] = []
        self.f1: list[float] = []
        #: One line per explore, hashed (sorted) into ``answer_digest``: two
        #: runs of one seed must answer bit for bit alike.
        self.answers: list[str] = []
        self._pending: list[tuple] = []
        self.tracer = tracing.Tracer(1.0, keep_traces=TRACE_RING) if args.trace else None
        self.layer_tables = {"setup": LayerTable(), "timed": LayerTable()}
        self.drained = 0
        self._chrome: list[list[dict]] = []
        #: er_clean scores ER outcomes, not individual answers, for F1.
        self.answer_f1 = args.workload != "er_clean"
        self.timer: BlockTimer | None = None
        # Set-up lasts from here (after imports) to the first timed request.
        # It runs in steps, each bracketed like a timed block: over seconds
        # the host's speed drifts too far for one pair of brackets to track.
        self.setup_timer = BlockTimer(self.kernel)
        self._setup_cpu0, self._setup_wall0 = time.process_time(), time.perf_counter()
        self.setup_cpu_s = self.setup_wall_s = 0.0

    @contextlib.contextmanager
    def setup_step(self, name: str) -> Iterator[Block]:
        """One bracketed step of set-up, traced under its own root span."""
        with self.setup_timer.block() as block:
            with tracing.root_span(name):
                yield block
        self.after_block(block, "setup")

    def run_timed(self, timed: Callable[[BlockTimer], None]) -> None:
        """Close the set-up measurement, then run the timed phase."""
        self.setup_cpu_s = time.process_time() - self._setup_cpu0
        self.setup_wall_s = time.perf_counter() - self._setup_wall0
        self.drain_checks()
        self.timer = BlockTimer(self.kernel)
        timed(self.timer)

    def after_block(self, block: Block, phase: str = "timed") -> None:
        self.drain_traces(phase, block.factor)
        self.drain_checks()

    # -- operations --------------------------------------------------------------

    def op(self, block: Block, kind: str, call: Callable[[], Any]) -> Any:
        """Run one request; record its thread CPU time in ``block``.

        Returns the result, or ``_Failed`` when the request raised (the
        failure is counted here).
        """
        with self._lock:
            self.attempted += 1
            self.explores += kind == "explore"
        start = time.thread_time()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return _Failed
        block.add(kind, time.thread_time() - start)
        return result

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(reason)

    def expect_answer(self, query, accuracy, result, truth_table, *, denial_ok: bool = False) -> None:
        """Queue an explore result for checking after the block ends."""
        if result is _Failed:
            return
        with self._lock:
            self._pending.append((query, accuracy, result, truth_table, denial_ok))

    def drain_checks(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, []
        for query, accuracy, result, truth_table, denial_ok in pending:
            self.answers.append(f"{query.name}|{result.mechanism}|{_answer_text(result.answer)}")
            if result.denied:
                if denial_ok:
                    self.denied_expected += 1
                else:
                    self.fail(f"explore({query.name}): denied with budget to spare")
                continue
            self.eps.append(result.epsilon_spent)
            passed, f1 = self.checker.check(query, accuracy, result.answer, truth_table)
            if not passed:
                self.fail(self.checker.problems[-1])
            elif f1 is not None and self.answer_f1:
                self.f1.append(f1)

    def check_transcript(self, transcript, budget: float, spent: float) -> None:
        for problem in transcript_problems(transcript, budget, spent):
            self.fail(problem)

    # -- tracing -----------------------------------------------------------------

    def drain_traces(self, phase: str, factor: float) -> None:
        if self.tracer is None:
            return
        traces = self.tracer.drain()
        self.drained += len(traces)
        self.layer_tables[phase].add_traces(traces, factor)
        if len(self._chrome) < 400:
            self._chrome.extend(traces[: 400 - len(self._chrome)])


def _service(round_: Round, tables: dict, registry, seed: int, store_dir: str) -> ExplorationService:
    return ExplorationService(
        tables,
        SERVICE_BUDGET,
        registry=registry,
        seed=seed,
        store=ArtifactStore(store_dir),
        journal=LedgerJournal(os.path.join(round_.work_dir, "wal", "ledger.wal")),
    )


def _service_counters(round_: Round, service: ExplorationService) -> dict[str, float]:
    stats = service.stats()
    translations = stats["translations"]
    lookups = translations["hits"] + translations["misses"]
    journal = stats["reliability"]["journal"]
    return {
        "service.batch_coalesced": stats["batching"]["coalesced"],
        "service.commit_batch_max": max(stats["budget"]["commit_batch_sizes"], default=0),
        "core.translation_hit_share": translations["hits"] / lookups if lookups else 0.0,
        "reliability.journal_records_per_explore": (
            journal["appended_records"] / round_.explores if round_.explores else 0.0
        ),
        "data.shards": sum(table["shards"] for table in stats["tables"].values()),
        "store.hits": stats["store"]["hits"],
        "store.writes": stats["store"]["writes"],
    }


def _global_counters() -> dict[str, float]:
    searches = search_stats()
    matrices = matrix_cache_stats()
    return {
        "mechanisms.wcqsm_searches": searches["searches"],
        "mechanisms.wcqsm_disk_hits": searches["disk_hits"],
        "queries.matrix_built": matrices["built"],
        "queries.matrix_revalidated": matrices["revalidated"],
    }


# ---------------------------------------------------------------------------
# cold_translate: every request misses every memo
# ---------------------------------------------------------------------------


def _cold_structures(rng: np.random.Generator, count: int, bench) -> list[tuple]:
    """``count`` distinct, never-seen structures from five templates.

    Each template gets the same bin counts (stratum midpoints of
    ``COLD_BINS``) and the same alpha pattern on every seed; the seed picks
    the WCQ ranges, the NYTaxi attribute and the order.  So every seed draws
    a new set of structures with the same spread of sizes, and the cost
    distribution barely depends on the seed.  The ICQ and TCQ ranges are
    fixed: those mechanisms' epsilon and F1 depend on the data in range, and
    would otherwise make ``eps_per_answer`` vary with the seed.
    """
    adult, taxi = bench.adult, bench.nytaxi
    per_template = count // 5
    low, high = COLD_BINS
    width = (high - low + 1) / per_template
    out = []
    for template in range(5):
        for k in range(per_template):
            bins = low + int((k + 0.5) * width)
            fraction = COLD_ALPHA_FRACTIONS[k % len(COLD_ALPHA_FRACTIONS)]
            name = f"cold-{template}-{k}"
            if template == 0:
                table, query = adult, WorkloadCountingQuery(histogram_workload(
                    "capital_gain", start=0, stop=250.0 * rng.integers(8, 41), bins=bins), name=name)
            elif template == 1:
                table, query = adult, WorkloadCountingQuery(cumulative_histogram_workload(
                    "capital_gain", start=0, stop=250.0 * rng.integers(8, 41), bins=bins), name=name)
            elif template == 2:
                stop = 250.0 * (8 + 11 * k % 33)
                table, query = adult, IcebergCountingQuery(
                    prefix_workload("capital_gain", [stop * (j + 1) / bins for j in range(bins)]),
                    threshold=0.1 * len(adult), name=name)
            elif template == 3:
                attribute = str(rng.choice(["trip_distance", "fare_amount", "total_amount"]))
                table, query = taxi, WorkloadCountingQuery(histogram_workload(
                    attribute, start=0, stop=float(rng.integers(5, 41)), bins=bins), name=name)
            else:
                start = float(17 + 7 * k % 24)
                table, query = adult, TopKCountingQuery(
                    point_workload("age", [start + j for j in range(bins)]), k=bins // 2,
                    name=name)
            analyst = "analyst-taxi" if table is taxi else "analyst-adult"
            accuracy = AccuracySpec(alpha=fraction * len(table), beta=BETA)
            out.append((analyst, table, query, accuracy))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def cold_translate(round_: Round) -> dict:
    size, seed = round_.size, derived_seed(round_.args.seed, round_.args.round)
    with round_.setup_step("bench.setup.tables"):
        bench = build_benchmark(adult_rows=size.adult_rows, nytaxi_rows=size.nytaxi_rows)
        structures = _cold_structures(np.random.default_rng(seed), size.cold_structures, bench)
    with round_.setup_step("bench.setup.service"):
        service = _service(
            round_, {"adult": bench.adult, "taxi": bench.nytaxi},
            default_registry(mc_samples=size.mc_samples), seed,
            os.path.join(round_.work_dir, "store"),
        )
        service.register_analyst("analyst-adult", table="adult")
        service.register_analyst("analyst-taxi", table="taxi")

    def timed(timer: BlockTimer) -> None:
        # One block per request: cold requests are long enough (tenths of a
        # second) for brackets around each one, which track the host's
        # speed more closely than brackets around the whole structure.
        for analyst, table, query, accuracy in structures:
            with timer.block() as block:
                round_.op(block, "preview", lambda: service.preview_cost(analyst, query, accuracy))
            round_.after_block(block)
            with timer.block() as block:
                result = round_.op(block, "explore", lambda: service.explore(analyst, query, accuracy))
                round_.expect_answer(query, accuracy, result, table)
            round_.after_block(block)

    round_.run_timed(timed)
    round_.check_transcript(service.merged_transcript(), service.budget, service.budget_spent)
    return {**_service_counters(round_, service), **_global_counters()}


# ---------------------------------------------------------------------------
# warm_replay: every request hits the memo tiers
# ---------------------------------------------------------------------------


def _table1(size: Size):
    bench = build_benchmark(adult_rows=size.adult_rows, nytaxi_rows=size.nytaxi_rows)
    entries = []
    for entry in bench:
        table = bench.table_for(entry)
        dataset = "adult" if table is bench.adult else "taxi"
        accuracy = AccuracySpec(alpha=WARM_ALPHA_FRACTION * len(table), beta=BETA)
        entries.append((dataset, table, entry.query, accuracy))
    return bench, entries


def prime_store(args: argparse.Namespace) -> None:
    """Fill ``<work-dir>/store`` with the Table 1 translations (untimed)."""
    size = size_for(args.seconds, args.smoke)
    bench, entries = _table1(size)
    service = ExplorationService(
        {"adult": bench.adult, "taxi": bench.nytaxi},
        SERVICE_BUDGET,
        registry=default_registry(mc_samples=size.mc_samples),
        store=ArtifactStore(os.path.join(args.work_dir, "store")),
    )
    for dataset in ("adult", "taxi"):
        service.register_analyst(f"prime-{dataset}", table=dataset)
    for dataset, _, query, accuracy in entries:
        service.preview_cost(f"prime-{dataset}", query, accuracy)


def warm_replay(round_: Round) -> dict:
    size, args = round_.size, round_.args
    with round_.setup_step("bench.setup.tables"):
        bench, entries = _table1(size)
    with round_.setup_step("bench.setup.service"):
        service = _service(
            round_, {"adult": bench.adult, "taxi": bench.nytaxi},
            default_registry(mc_samples=size.mc_samples),
            derived_seed(args.seed, args.round),
            os.path.join(round_.work_dir, "store"),
        )
        for thread in range(ANALYST_THREADS):
            for dataset in ("adult", "taxi"):
                service.register_analyst(f"t{thread}-{dataset}", table=dataset)

    def request(thread: int, block: Block, op: str, pick: int) -> None:
        dataset, table, query, accuracy = entries[pick]
        analyst = f"t{thread}-{dataset}"
        if op == "preview":
            round_.op(block, "preview", lambda: service.preview_cost(analyst, query, accuracy))
        else:
            result = round_.op(block, "explore", lambda: service.explore(analyst, query, accuracy))
            round_.expect_answer(query, accuracy, result, table)

    # Warm-up: identical previews, released to both threads at once,
    # coalesce in the batcher; the explores are split between threads
    # because the caches they fill are shared.
    warm_up = [lambda thread, block, pick=pick: request(thread, block, "preview", pick)
               for pick in range(len(entries))]
    warm_up += [
        lambda thread, block, first=first: request(thread, block, "explore", first + thread)
        for first in range(0, len(entries), ANALYST_THREADS)
    ]
    _lockstep(round_, round_.setup_timer, warm_up, "setup")

    # Each thread issues every (query, preview/explore) pair equally often,
    # in a seeded order, so the mix -- and with it the mean epsilon -- does
    # not drift with the seed.
    pairs = [(op, pick) for pick in range(len(entries)) for op in ("preview", "explore")]
    plans = []
    for thread in range(ANALYST_THREADS):
        rng = np.random.default_rng([args.seed, args.round, thread])
        plan = pairs * (size.warm_requests // len(pairs))
        plans.append([plan[i] for i in rng.permutation(len(plan))])

    def block_of(first: int) -> Callable[[int, Block], None]:
        def run(thread: int, block: Block) -> None:
            for op, pick in plans[thread][first:first + size.warm_block_requests]:
                request(thread, block, op, pick)
        return run

    steps = [block_of(first) for first in range(0, size.warm_requests, size.warm_block_requests)]
    round_.run_timed(lambda timer: _lockstep(round_, timer, steps, "timed"))
    round_.check_transcript(service.merged_transcript(), service.budget, service.budget_spent)
    return {**_service_counters(round_, service), **_global_counters()}


def _lockstep(round_: Round, timer: BlockTimer, steps: list[Callable[[int, Block], None]],
              phase: str) -> None:
    """Run every step on all analyst threads at once, one bracketed block each.

    The driving thread runs the reference kernel between steps while the
    analyst threads wait at a barrier, so no request is in flight during a
    bracket.
    """
    start, done = threading.Barrier(ANALYST_THREADS + 1), threading.Barrier(ANALYST_THREADS + 1)
    current: list[Block] = []

    def worker(thread: int) -> None:
        for step in steps:
            start.wait(timeout=BARRIER_TIMEOUT_S)
            try:
                step(thread, current[0])
            except Exception as exc:  # noqa: BLE001 - counted; the other threads go on
                round_.fail(f"analyst thread {thread}: {type(exc).__name__}: {exc}")
            done.wait(timeout=BARRIER_TIMEOUT_S)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(ANALYST_THREADS)]
    for thread in threads:
        thread.start()
    try:
        for _ in steps:
            with timer.block() as block:
                current[:] = [block]
                start.wait(timeout=BARRIER_TIMEOUT_S)
                done.wait(timeout=BARRIER_TIMEOUT_S)
            round_.after_block(block, phase)
    finally:
        start.abort()
        done.abort()
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT_S)


# ---------------------------------------------------------------------------
# append_stream: writes beside reads
# ---------------------------------------------------------------------------


def append_stream(round_: Round) -> dict:
    size, args = round_.size, round_.args
    seed = derived_seed(args.seed, args.round)
    config = GeneratorConfig(
        seed=seed,
        initial_rows=size.append_initial_rows,
        periods=size.append_periods,
        rows_per_period=size.append_rows_per_period,
        drift="mixed",
    )
    with round_.setup_step("bench.setup.tables"):
        generator = MicrosimulationGenerator(config)
        table = generator.build_table()
    with round_.setup_step("bench.setup.batches"):
        batches = [list(batch.rows) for batch in generator.batches()]
    with round_.setup_step("bench.setup.service"):
        service = _service(
            round_, {config.table: table}, default_registry(mc_samples=size.mc_samples),
            seed, os.path.join(round_.work_dir, "store"),
        )
        service.register_analyst("owner-analyst", table=config.table)
        templates = [parse_query(text) for text in query_templates(config)]

    def timed(timer: BlockTimer) -> None:
        for rows in batches:
            with timer.block() as block:
                with tracing.root_span("bench.append"):
                    round_.op(block, "append", lambda: service.append_rows(config.table, rows))
                for query, accuracy in templates:
                    round_.op(block, "preview",
                              lambda: service.preview_cost("owner-analyst", query, accuracy))
                    result = round_.op(
                        block, "explore", lambda: service.explore("owner-analyst", query, accuracy))
                    # The version these requests were admitted at.
                    round_.expect_answer(query, accuracy, result, table.snapshot())
            round_.after_block(block)

    round_.run_timed(timed)
    round_.check_transcript(service.merged_transcript(), service.budget, service.budget_spent)
    return {**_service_counters(round_, service), **_global_counters()}


# ---------------------------------------------------------------------------
# er_clean: the entity-resolution case study at engine level
# ---------------------------------------------------------------------------


class MeasuredEngine(APExEngine):
    """An engine that previews before every explore and records both."""

    def __init__(self, *args: Any, round_: Round, block: Block, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._round = round_
        self._block = block

    def explore(self, query, accuracy, **kwargs):
        parent = super()
        round_, block = self._round, self._block
        if round_.op(block, "preview", lambda: parent.preview_cost(query, accuracy)) is _Failed:
            raise _Failed
        result = round_.op(block, "explore", lambda: parent.explore(query, accuracy, **kwargs))
        if result is _Failed:
            raise _Failed
        round_.expect_answer(query, accuracy, result, self.table, denial_ok=True)
        return result


def er_clean(round_: Round) -> dict:
    size, args = round_.size, round_.args
    # The study's inputs -- the citation pairs and one cleaner per strategy
    # -- depend on the round only; the seed drives the noise and the
    # strategies' candidate orderings.  Set-up scores (in pure Python) every
    # similarity column the cleaners can ask for, so the timed runs measure
    # predicate evaluation and the request path, not first-time scoring,
    # whose amount would depend on the seed far more than on the code.
    with round_.setup_step("bench.setup.tables"):
        table = pairs_to_table(generate_citation_pairs(size.er_pairs, seed=args.round))
        cache = SimilarityCache(table)
        cleaner_model = CleanerModel(seed=args.round)
        cleaners = [cleaner_model.sample() for _ in ER_STRATEGIES]
        columns = {spec.key(): spec for cleaner in cleaners
                   for spec in cleaner.candidate_predicates(ER_ATTRIBUTE_PAIRS)}
        accuracy = AccuracySpec(alpha=ER_ALPHA_FRACTION * len(table), beta=BETA)
        registry = default_registry(mc_samples=size.mc_samples)
    for spec in columns.values():
        with round_.setup_step("bench.setup.similarity"):
            cache.scores(spec)
    hits = {"hits": 0, "misses": 0}

    def er_run(block: Block, strategy: int, run_seed: int) -> None:
        engine = MeasuredEngine(
            table, budget=ER_BUDGET, seed=run_seed, registry=registry,
            round_=round_, block=block,
        )
        strategy_class = ER_STRATEGIES[strategy][1]
        runner = strategy_class(table, cleaners[strategy], accuracy, cache=cache, rng=run_seed)
        try:
            outcome = runner.run(engine)
        except _Failed:
            return
        except Exception as exc:  # noqa: BLE001 - a crashed run is one failure
            round_.fail(f"{strategy_class.__name__}: {type(exc).__name__}: {exc}")
            return
        round_.f1.append(outcome.f1)
        translations = engine.cache_stats()["translations"]
        hits["hits"] += translations["hits"]
        hits["misses"] += translations["misses"]
        round_.check_transcript(engine.transcript(), engine.budget, engine.budget_spent)

    for strategy in range(len(ER_STRATEGIES)):
        with round_.setup_step("bench.setup.warm_up") as block:
            er_run(block, strategy, derived_seed(args.round, 0, strategy))

    def timed(timer: BlockTimer) -> None:
        total = size.er_runs * len(ER_STRATEGIES)
        for first in range(0, total, size.er_block_runs):
            with timer.block() as block:
                for index in range(first, min(first + size.er_block_runs, total)):
                    er_run(block, index % len(ER_STRATEGIES),
                           derived_seed(args.seed, args.round, 1, index))
            round_.after_block(block)

    round_.run_timed(timed)
    lookups = hits["hits"] + hits["misses"]
    return {
        "service.batch_coalesced": 0,
        "service.commit_batch_max": 0,
        "core.translation_hit_share": hits["hits"] / lookups if lookups else 0.0,
        "reliability.journal_records_per_explore": 0.0,
        "data.shards": table.n_shards,
        "store.hits": 0,
        "store.writes": 0,
        **_global_counters(),
    }


# ---------------------------------------------------------------------------
# running one round
# ---------------------------------------------------------------------------


RUNNERS = {
    "cold_translate": cold_translate,
    "warm_replay": warm_replay,
    "append_stream": append_stream,
    "er_clean": er_clean,
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal CPU seconds of this round's timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-tests only)")
    parser.add_argument("--prime", action="store_true", help="fill the warm_replay store and exit")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", help="where to write the round record (JSON)")
    parser.add_argument("--chrome-out", help="traced rounds: Chrome trace of the first traces")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    wall0 = time.perf_counter()
    if args.prime:
        prime_store(args)
        return 0
    round_ = Round(args)
    if round_.tracer is not None:
        tracing.install_tracer(round_.tracer)
    with layer_wrappers() if args.trace else contextlib.nullcontext():
        counters = RUNNERS[args.workload](round_)
    tracing.install_tracer(None)
    round_.drain_checks()
    excess = round_.checker.excess_misses()
    if excess:
        round_.failed += excess
        round_.errors.append(
            f"{round_.checker.wcq_misses} of {round_.checker.wcq_answers} WCQ answers "
            f"missed alpha; at most {round_.checker.allowance()} may"
        )
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "traced": bool(args.trace),
        "size": asdict(round_.size),
        "setup": {
            "blocks": [_without_samples(block) for block in round_.setup_timer.blocks],
            "cpu_s": round_.setup_cpu_s,
            "wall_s": round_.setup_wall_s,
        },
        "blocks": [block.to_json() for block in round_.timer.blocks],
        "ref_series": round_.kernel.series,
        "ops": {
            "attempted": round_.attempted,
            "failed": round_.failed,
            "denied_expected": round_.denied_expected,
            "errors": round_.errors,
        },
        "quality": {
            "eps_sum": math.fsum(round_.eps),
            "eps_answers": len(round_.eps),
            "f1_sum": math.fsum(round_.f1),
            "f1_count": len(round_.f1),
            "answer_digest": hashlib.sha256(
                "\n".join(sorted(round_.answers)).encode()).hexdigest(),
        },
        "checks": {
            "wcq_answers": round_.checker.wcq_answers,
            "wcq_misses": round_.checker.wcq_misses,
            "wcq_allowance": round_.checker.allowance(),
            "problems": round_.checker.problems[:20],
        },
        "counters": counters,
        "round_cpu_s": time.process_time(),
        "round_wall_s": time.perf_counter() - wall0,
    }
    if args.trace:
        timed_ops = sum(block.ops for block in round_.timer.blocks)
        record["layers"] = {
            "setup": round_.layer_tables["setup"].to_json(1),
            "timed": round_.layer_tables["timed"].to_json(timed_ops),
            "dropped_traces": int(round_.tracer.stats()["roots_sampled"]) - round_.drained,
        }
        if args.chrome_out:
            write_chrome_trace(args.chrome_out, round_._chrome)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def _without_samples(block: Block) -> dict:
    return {key: value for key, value in block.to_json().items() if key != "samples"}


def _check_import_root() -> None:
    """Refuse to measure a ``repro`` that is not the checkout's own."""
    expected = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    actual = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if os.path.realpath(actual) != os.path.realpath(expected):
        raise SystemExit(f"repro imported from {actual}, not from this checkout's src/")


if __name__ == "__main__":
    _check_import_root()
    sys.exit(main())
